// Command tnserve runs the standalone Trust-X trust negotiation web
// service (paper §6.2, Fig. 5): it loads a party configuration directory
// and answers StartNegotiation / PolicyExchange / CredentialExchange
// requests as that party.
//
// Usage:
//
//	tnserve -party <dir> [-addr :8080] [-v] [-report run.json]
//
// Generate a demo workspace first with `voctl demo -dir demo`; then:
//
//	tnserve -party demo/initiator
//
// The service grants an opaque receipt for any resource its disclosure
// policies release; to integrate grants with a VO (membership tokens),
// run `voctl serve` instead.
//
// Telemetry is always collected and served at GET /metrics (Prometheus
// text format) alongside GET /healthz. -v (or TRUSTVO_DEBUG=1) logs one
// key=value line per negotiation message; -report writes a structured
// JSON run report — counters, gauges, and per-phase p50/p95/p99 — when
// the server shuts down on SIGINT/SIGTERM.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"trustvo/internal/cli"
	"trustvo/internal/cluster"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store"
	"trustvo/internal/store/cacher"
	"trustvo/internal/telemetry"
	"trustvo/internal/wsrpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tnserve: ")
	var (
		partyDir = flag.String("party", "", "party configuration directory (required)")
		addr     = flag.String("addr", ":8080", "listen address")
		dbPath   = flag.String("db", "", "WAL-backed document store for policies and credentials; "+
			"the party's profile and policies are written to it at startup and every "+
			"StartNegotiation reloads them from it (the paper's §6.2 DB path)")
		dbCacheTTL = flag.Duration("db.cachettl", cacher.DefaultTTL,
			"TTL of the read-through party cache over -db; 0 disables the cache "+
				"(reads then hit the store directly on every reload)")
		verbose = flag.Bool("v", false, "log one line per negotiation message handled "+
			"(TRUSTVO_DEBUG=1 does the same)")
		reportPath = flag.String("report", "", "write a JSON telemetry report to this file on shutdown")

		clusterName  = flag.String("cluster.name", "", "join a sharded TN cluster under this node name (enables the /cluster RPCs and ring routing)")
		clusterPeers = flag.String("cluster.peers", "", "comma-separated name=url peer list, e.g. n2=http://host2:8080,n3=http://host3:8080")
		clusterRedir = flag.Bool("cluster.redirect", false, "307-redirect misrouted sessions to their owner instead of proxying")
	)
	flag.Parse()
	if *partyDir == "" {
		flag.Usage()
		os.Exit(2)
	}
	party, err := cli.LoadParty(*partyDir)
	if err != nil {
		log.Fatal(err)
	}
	if party.Grant == nil {
		party.Grant = func(resource, peer string) ([]byte, error) {
			return []byte(fmt.Sprintf("granted:%s:to:%s", resource, peer)), nil
		}
	}
	svc := wsrpc.NewTNService(party)
	svc.Logf = log.Printf
	if *verbose || os.Getenv("TRUSTVO_DEBUG") != "" {
		svc.Debugf = log.Printf
	}

	// Cluster mode: this node joins a consistent-hash ring with its
	// peers, serves the /cluster RPCs (standby shipping; replication
	// frames it applies only when sealed under the shared key) and
	// routes misowned sessions to their ring owner. Nothing here
	// promotes a replication leader, so the node's store hook never
	// ships a commit: store replication runs only where a caller calls
	// Promote.
	var node *cluster.Node
	if *clusterName != "" {
		ring := cluster.NewRing(0)
		ring.Add(*clusterName)
		peers := map[string]string{}
		for _, kv := range strings.Split(*clusterPeers, ",") {
			kv = strings.TrimSpace(kv)
			if kv == "" {
				continue
			}
			name, url, ok := strings.Cut(kv, "=")
			if !ok {
				log.Fatalf("-cluster.peers: entry %q is not name=url", kv)
			}
			ring.Add(name)
			peers[name] = url
		}
		keys := party.Keys
		if keys == nil {
			// Standby ships need a signing key every node shares; an
			// ephemeral one only works single-process (tests, demos).
			keys = pki.MustGenerateKeyPair()
			log.Printf("cluster: party has no keypair; standby ships use an ephemeral key only this process trusts")
		}
		node, err = cluster.NewNode(cluster.Config{
			Name:      *clusterName,
			Ring:      ring,
			TN:        svc,
			Transport: &wsrpc.Transport{RequestTimeout: 5 * time.Second, Metrics: svc.Metrics},
			Metrics:   svc.Metrics,
			Keys:      keys,
			Redirect:  *clusterRedir,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		for peer, url := range peers {
			node.SetPeer(peer, url)
		}
		if *dbPath == "" {
			// A replicated frame needs a store to apply to; without -db
			// it is an in-memory one (sessions still move, documents do
			// not survive a restart).
			node.AttachDB(store.NewWithOptions(store.Options{OnCommit: node.OnCommit}))
		}
		log.Printf("cluster: node %q on a %d-node ring (redirect=%v)",
			*clusterName, len(ring.Nodes()), *clusterRedir)
	}

	if *dbPath != "" {
		// Durable open: the party's credentials and any suspended
		// negotiations must survive a crash, and group commit keeps the
		// fsync cost shared across concurrent session writes. In cluster
		// mode commits go through the node's replication hook, which
		// ships nothing unless the node is promoted to leader.
		opts := store.Options{Durability: store.DurabilityGroup}
		if node != nil {
			opts.OnCommit = node.OnCommit
		}
		db, err := store.OpenWithOptions(*dbPath, opts)
		if err != nil {
			log.Fatal(err)
		}
		defer db.Close()
		if node != nil {
			node.AttachDB(db)
		}
		db.Instrument(svc.Metrics)
		if err := partydb.SaveParty(db, party); err != nil {
			log.Fatal(err)
		}
		if err := db.Sync(); err != nil {
			log.Fatal(err)
		}
		svc.DB = db
		if *dbCacheTTL > 0 {
			// Read-through coalescing cache for the hot party reload:
			// commits (including replicated applies) invalidate it, so it
			// only trades backend reads, never freshness.
			c := cacher.New(db, *dbCacheTTL)
			c.Instrument(svc.Metrics)
			svc.PartyReader = c
		}
		log.Printf("policies and credentials stored in %s (cache ttl %s)", *dbPath, *dbCacheTTL)
		// pick up negotiations a previous run suspended on shutdown
		if n, err := svc.ResumeSessions(db); err != nil {
			log.Printf("resuming suspended negotiations: %v", err)
		} else if n > 0 {
			log.Printf("resumed %d suspended negotiation(s)", n)
		}
	}
	mux := http.NewServeMux()
	if node != nil {
		node.Register(mux) // wraps the TN routes with ring routing + /cluster RPCs
	} else {
		svc.Register(mux)
	}
	log.Printf("negotiating as %q (strategy %s) on %s", party.Name, party.Strategy, *addr)
	log.Printf("operations: POST /tn/start /tn/policyExchange /tn/credentialExchange, GET /tn/status /metrics /healthz")

	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if node != nil {
		node.Start(ctx)
	}
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// The server has drained. In cluster mode, ship every negotiation to
	// its new ring owner's standby table, so clients resume against
	// survivors without waiting for this process to come back.
	if node != nil {
		node.Ring().Remove(*clusterName)
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		moved, err := node.Drain(drainCtx)
		cancel()
		if err != nil {
			log.Printf("cluster drain: %v", err)
		}
		if moved > 0 {
			log.Printf("cluster: shipped %d session(s) to their owners", moved)
		}
	}
	// Persist whatever is still local so clients can continue against the
	// next run (SIGTERM-safe restarts).
	if svc.DB != nil {
		if n, err := svc.SuspendSessions(svc.DB); err != nil {
			log.Printf("suspending live negotiations: %v", err)
		} else if n > 0 {
			log.Printf("suspended %d live negotiation(s) to %s", n, *dbPath)
		}
	}
	if *reportPath != "" {
		if err := writeReport(svc.Metrics, *reportPath); err != nil {
			log.Fatal(err)
		}
		log.Printf("telemetry report written to %s", *reportPath)
	}
}

func writeReport(reg *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.Report().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
