// Command voctl is the VO Management toolkit CLI (paper §6.1): it runs
// the Initiator edition as a service and drives the Member edition
// against it.
//
// Subcommands:
//
//	voctl demo    -dir <dir>                       generate a runnable demo workspace
//	voctl serve   -party <dir> -contract <file>    host the initiator toolkit (+ TN service)
//	voctl publish -party <dir> -url <base> -service <name> [-capability c]...
//	voctl join    -party <dir> -url <base> -role <role> [-direct]
//	voctl members -url <base>
//	voctl status  -url <base>
//	voctl phase   -url <base> -to formation|operation|dissolution
//	voctl operate -party <dir> -url <base> -operation <op>
//	voctl reputation -url <base> -member <name>
//	voctl audit   -url <base>
//	voctl cluster-status -url <base>[,<base>...]   probe sharded-TN cluster nodes
//
// A complete session:
//
//	voctl demo -dir demo
//	voctl serve -party demo/initiator -contract demo/initiator/contract.xml &
//	voctl publish -party demo/member -url http://localhost:8080 -service DesignPortal -capability design-db
//	voctl join -party demo/member -url http://localhost:8080 -role DesignWebPortal
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"trustvo/internal/cli"
	"trustvo/internal/cluster"
	"trustvo/internal/core"
	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/store"
	"trustvo/internal/vo/registry"
	"trustvo/internal/wsrpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("voctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "demo":
		err = cmdDemo(args)
	case "serve":
		err = cmdServe(args)
	case "publish":
		err = cmdPublish(args)
	case "join":
		err = cmdJoin(args)
	case "members":
		err = cmdMembers(args)
	case "status":
		err = cmdStatus(args)
	case "phase":
		err = cmdPhase(args)
	case "operate":
		err = cmdOperate(args)
	case "reputation":
		err = cmdReputation(args)
	case "audit":
		err = cmdAudit(args)
	case "cluster-status":
		err = cmdClusterStatus(args)
	default:
		usage()
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: voctl <demo|serve|publish|join|members|status|phase|operate|reputation|audit|cluster-status> [flags]")
	os.Exit(2)
}

// cmdClusterStatus probes each node of a sharded TN cluster and prints
// one line per node: replication role, epoch, and log positions. The
// lag of a follower is the leader's head minus the follower's applied.
// Each probe goes through the hardened transport, and a reply that is
// not a well-formed <clusterStatus> is reported, not read as zeros.
func cmdClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster-status", flag.ExitOnError)
	urls := fs.String("url", "http://localhost:8080", "comma-separated node base URLs")
	fs.Parse(args)
	tr := &wsrpc.Transport{RequestTimeout: 5 * time.Second}
	type row struct {
		base string
		st   cluster.Status
	}
	var rows []row
	var leaderHead uint64
	haveLeader := false
	for _, base := range strings.Split(*urls, ",") {
		base = strings.TrimRight(strings.TrimSpace(base), "/")
		if base == "" {
			continue
		}
		st, err := cluster.FetchStatus(context.Background(), tr, base)
		var werr *wsrpc.Error
		switch {
		case errors.As(err, &werr) && werr.Status == 0:
			fmt.Printf("%-28s unreachable: %v\n", base, err)
			continue
		case err != nil:
			fmt.Printf("%-28s not a cluster node: %v\n", base, err)
			continue
		}
		if st.Leader {
			leaderHead, haveLeader = st.Pos, true
		}
		rows = append(rows, row{base, st})
	}
	for _, r := range rows {
		role, lag := "follower", ""
		if r.st.Leader {
			role = "leader"
		} else if haveLeader {
			lag = fmt.Sprintf(" lag=%d", int64(leaderHead)-int64(r.st.Applied))
		}
		fmt.Printf("%-28s node=%-8s role=%-8s epoch=%d pos=%d applied=%d%s\n",
			r.base, r.st.Node, role, r.st.Epoch, r.st.Pos, r.st.Applied, lag)
	}
	if len(rows) == 0 {
		return errors.New("no cluster nodes answered")
	}
	return nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	dir := fs.String("dir", "demo", "output directory")
	fs.Parse(args)
	if err := cli.WriteDemo(*dir); err != nil {
		return err
	}
	log.Printf("demo workspace written to %s (ca.xml, initiator/, member/)", *dir)
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	partyDir := fs.String("party", "", "initiator party directory (required)")
	contractPath := fs.String("contract", "", "contract.xml path (required)")
	addr := fs.String("addr", ":8080", "listen address")
	dbPath := fs.String("db", "", "WAL-backed store for the initiator's policies and credentials "+
		"(reloaded on every StartNegotiation, the paper's §6.2 DB path)")
	verbose := fs.Bool("v", false, "log one line per negotiation message handled "+
		"(TRUSTVO_DEBUG=1 does the same)")
	fs.Parse(args)
	if *partyDir == "" || *contractPath == "" {
		fs.Usage()
		os.Exit(2)
	}
	party, err := cli.LoadParty(*partyDir)
	if err != nil {
		return err
	}
	contract, err := cli.LoadContract(*contractPath)
	if err != nil {
		return err
	}
	ini, err := core.NewInitiator(contract, party, registry.New())
	if err != nil {
		return err
	}
	if err := ini.VO.StartFormation(); err != nil {
		return err
	}
	tk := wsrpc.NewToolkitService(ini)
	tk.TN.Logf = log.Printf
	if *verbose || os.Getenv("TRUSTVO_DEBUG") != "" {
		tk.TN.Debugf = log.Printf
	}
	if *dbPath != "" {
		// Durable open: see cmd/tnserve — acknowledged writes survive a
		// crash, group commit amortizes the fsyncs.
		db, err := store.OpenDurable(*dbPath)
		if err != nil {
			return err
		}
		defer db.Close()
		db.Instrument(tk.TN.Metrics)
		// persist AFTER NewInitiator: the admission policies and the
		// VO-property credential are part of the negotiating state
		if err := partydb.SaveParty(db, party); err != nil {
			return err
		}
		if err := db.Sync(); err != nil {
			return err
		}
		tk.TN.DB = db
		log.Printf("policies and credentials stored in %s", *dbPath)
	}
	mux := http.NewServeMux()
	tk.Register(mux)
	log.Printf("VO %q (initiator %s) in %s phase on %s (metrics at /metrics)", contract.VOName, party.Name, ini.VO.Phase(), *addr)
	return http.ListenAndServe(*addr, mux)
}

type stringsFlag []string

func (s *stringsFlag) String() string     { return strings.Join(*s, ",") }
func (s *stringsFlag) Set(v string) error { *s = append(*s, v); return nil }

func memberClient(fs *flag.FlagSet, args []string) (*wsrpc.MemberClient, *flag.FlagSet, error) {
	partyDir := fs.String("party", "", "party directory")
	url := fs.String("url", "http://localhost:8080", "toolkit base URL")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request timeout")
	fs.Parse(args)
	c := &wsrpc.MemberClient{
		BaseURL:   *url,
		Transport: &wsrpc.Transport{RequestTimeout: *timeout},
	}
	if *partyDir != "" {
		p, err := cli.LoadParty(*partyDir)
		if err != nil {
			return nil, nil, err
		}
		c.Party = p
	}
	return c, fs, nil
}

func cmdPublish(args []string) error {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	service := fs.String("service", "", "service name (required)")
	quality := fs.String("quality", "", "advertised quality")
	var caps stringsFlag
	fs.Var(&caps, "capability", "offered capability (repeatable)")
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	if c.Party == nil || *service == "" {
		fs.Usage()
		os.Exit(2)
	}
	err = c.Publish(context.Background(), &registry.Description{
		Provider: c.Party.Name, Service: *service,
		Capabilities: caps, Quality: *quality,
	})
	if err != nil {
		return err
	}
	log.Printf("published %s (%s)", c.Party.Name, *service)
	return nil
}

func cmdJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	role := fs.String("role", "", "role to join (required)")
	direct := fs.Bool("direct", false, "baseline join without trust negotiation")
	verbose := fs.Bool("v", false, "trace the negotiation message flow")
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	if c.Party == nil || *role == "" {
		fs.Usage()
		os.Exit(2)
	}
	if *verbose {
		c.Party.Trace = func(dir string, m *negotiation.Message) {
			arrow := "->"
			if dir == "recv" {
				arrow = "<-"
			}
			log.Printf("  tn %s %s", arrow, m.Summary())
		}
	}
	ctx := context.Background()
	if *direct {
		der, err := c.JoinDirect(ctx, *role)
		if err != nil {
			return err
		}
		log.Printf("joined %s without negotiation; membership token %d bytes (DER)", *role, len(der))
		return nil
	}
	der, out, err := c.Join(ctx, *role)
	// A transport failure mid-negotiation suspends into a resume ticket;
	// pick it up in place so a blip doesn't abandon the join.
	for resumed := 0; err != nil && resumed < 3; resumed++ {
		var se *wsrpc.SuspendedError
		if !errors.As(err, &se) {
			break
		}
		log.Printf("negotiation %s suspended (%v); resuming", se.Ticket.NegID, se.Unwrap())
		der, out, err = c.ResumeJoin(ctx, se.Ticket)
	}
	if err != nil {
		return err
	}
	log.Printf("joined %s after a %d-round trust negotiation; membership token %d bytes (DER)",
		*role, out.Rounds, len(der))
	for _, d := range out.Received {
		log.Printf("  counterpart disclosed: %s (issuer %s)", d.Credential.Type, d.Credential.Issuer)
	}
	for _, d := range out.Sent {
		log.Printf("  we disclosed:          %s (issuer %s)", d.Credential.Type, d.Credential.Issuer)
	}
	return nil
}

func cmdMembers(args []string) error {
	fs := flag.NewFlagSet("members", flag.ExitOnError)
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	members, err := c.Members(context.Background())
	if err != nil {
		return err
	}
	names := make([]string, 0, len(members))
	for n := range members {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-24s %s\n", n, members[n])
	}
	return nil
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	phase, members, err := c.VOStatus(context.Background())
	if err != nil {
		return err
	}
	fmt.Printf("phase=%s members=%d\n", phase, members)
	return nil
}

func cmdPhase(args []string) error {
	fs := flag.NewFlagSet("phase", flag.ExitOnError)
	to := fs.String("to", "", "target phase: formation|operation|dissolution")
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	if *to == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := c.Phase(context.Background(), *to); err != nil {
		return fmt.Errorf("phase change failed: %w", err)
	}
	log.Printf("phase changed to %s", *to)
	return nil
}

func cmdOperate(args []string) error {
	fs := flag.NewFlagSet("operate", flag.ExitOnError)
	op := fs.String("operation", "", "operation to invoke (required)")
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	if c.Party == nil || *op == "" {
		fs.Usage()
		os.Exit(2)
	}
	if err := c.Operate(context.Background(), *op); err != nil {
		return err
	}
	log.Printf("operation %q authorized for %s", *op, c.Party.Name)
	return nil
}

func cmdReputation(args []string) error {
	fs := flag.NewFlagSet("reputation", flag.ExitOnError)
	member := fs.String("member", "", "member name (required)")
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	if *member == "" {
		fs.Usage()
		os.Exit(2)
	}
	score, err := c.Reputation(context.Background(), *member)
	if err != nil {
		return err
	}
	fmt.Printf("%s %.4f\n", *member, score)
	return nil
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	c, _, err := memberClient(fs, args)
	if err != nil {
		return err
	}
	entries, err := c.Audit(context.Background())
	if err != nil {
		return err
	}
	for _, e := range entries {
		verdict := "ALLOWED"
		if !e.Allowed {
			verdict = "DENIED "
		}
		fmt.Printf("%s  %s  %-24s %-16s %s\n",
			e.At.Format("2006-01-02T15:04:05Z"), verdict, e.Member, e.Operation, e.Detail)
	}
	return nil
}
