package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/partydb"
	"trustvo/internal/pki"
	"trustvo/internal/store/cacher"
	"trustvo/internal/telemetry"
	"trustvo/internal/wsrpc"
	"trustvo/internal/xmldom"
	"trustvo/internal/xtnl"
)

// counters are the cost-free counters read around the traced window.
type counters struct {
	verify                   pki.CacheStats
	cache                    cacher.Stats
	fsyncs, appends, reloads int64
	forwards                 int64
}

func (e *env) counters() counters {
	c := counters{
		verify:  e.trust.CacheStats(),
		fsyncs:  e.reg.Counter("store_fsync_total").Value(),
		appends: e.reg.Counter("store_wal_appends_total").Value(),
		reloads: e.reg.Counter("tn_party_reloads_total").Value(),
		forwards: e.reg.Counter("cluster_forwards_total", "route", "/tn/policyExchange").Value() +
			e.reg.Counter("cluster_forwards_total", "route", "/tn/credentialExchange").Value(),
	}
	if e.cache != nil {
		c.cache = e.cache.Stats()
	}
	return c
}

// ratio is a/b, 0 when b is 0 (the layer was not exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedWindow runs half the window untraced and half traced, then the
// layer probes, and reports the per-layer metrics.
func (e *env) tracedWindow(ctx context.Context, spec *workloadSpec, cfg *runConfig, gens []*opGen, res *result) (*tally, error) {
	half := cfg.window / 2
	w, err := e.measureWindow(ctx, spec, gens, half)
	if err != nil {
		return nil, err
	}
	plain := w.t
	c0 := e.counters()
	u0, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	e.tr.on.Store(true)
	traced := e.drive(ctx, spec, gens, half)
	e.tr.on.Store(false)
	u1, err := sampleUsage()
	if err != nil {
		return nil, err
	}
	c1 := e.counters()
	spans, bodies := e.tr.finished()
	if cfg.spansOut != "" {
		if err := writeSpans(cfg.spansOut, spans); err != nil {
			return nil, err
		}
	}
	st := analyze(spans)
	joins := float64(st.joins)
	lm := w.load

	lm["wsrpc.calls_per_join"] = ratio(float64(st.calls), joins)
	lm["wsrpc.bytes_per_join"] = ratio(float64(st.bytes), joins)
	lm["wsrpc.call_us_per_join"] = ratio(float64(st.callNs)/1e3, joins)
	lm["wsrpc.handler_us_per_join"] = ratio(float64(st.handlerNs)/1e3, joins)
	lm["wsrpc.transport_us_per_join"] = ratio(float64(st.callNs-st.handlerNs)/1e3, joins)
	lm["wsrpc.client_us_per_join"] = ratio(float64(st.outsideCallsNs)/1e3, joins)
	lm["wsrpc.client_codec_us_per_join"] = ratio(float64(st.codecNs)/1e3, joins)
	lm["negotiation.client_engine_us_per_join"] = ratio(float64(st.engineNs)/1e3, joins)

	hits := float64(c1.verify.Hits - c0.verify.Hits)
	misses := float64(c1.verify.Misses - c0.verify.Misses)
	lm["pki.verify_misses_per_join"] = ratio(misses, joins)
	lm["pki.verify_hit_ratio"] = ratio(hits, hits+misses)

	puts := sortDurations(st.puts)
	fsyncs := float64(c1.fsyncs - c0.fsyncs)
	lm["store.put_us"] = us(meanDuration(puts))
	lm["store.write_p99_ms"] = ms(percentile(puts, 0.99))
	lm["store.fsyncs_per_put"] = ratio(fsyncs, float64(len(puts)))
	lm["store.batch_mean"] = ratio(float64(c1.appends-c0.appends), fsyncs)

	lm["partydb.reload_us"] = ratio(float64(st.reloadNs)/1e3, float64(st.reloads))
	lm["partydb.reloads_per_write"] = ratio(float64(c1.reloads-c0.reloads), float64(len(puts)))
	cacheHits := float64(c1.cache.Hits - c0.cache.Hits)
	cacheMisses := float64(c1.cache.Misses - c0.cache.Misses)
	lm["cacher.hit_ratio"] = ratio(cacheHits, cacheHits+cacheMisses)
	lm["cacher.coalesced_per_miss"] = ratio(float64(c1.cache.Coalesced-c0.cache.Coalesced), cacheMisses)

	lm["cluster.ships_per_join"] = ratio(float64(st.ships), joins)
	lm["cluster.ship_us_per_join"] = ratio(float64(st.shipNs)/1e3, joins)
	lm["cluster.standby_handler_us"] = ratio(float64(st.standbyNs)/1e3, float64(st.standbys))
	lm["cluster.forwards_per_join"] = ratio(float64(c1.forwards-c0.forwards), joins)

	lm["runtime.gc_per_1k_joins"] = ratio(float64(u1.numGC-u0.numGC)*1000, joins)
	lm["runtime.gc_pause_us_per_join"] = ratio(float64(u1.pauseNs-u0.pauseNs)/1e3, joins)
	lm["runtime.goroutines_delta"] = float64(u1.goroutines - u0.goroutines)

	lm["trace.attributed_pct"] = ratio(float64(st.attributedNs)*100, float64(st.rootNs))
	plainMean, tracedMean := meanDuration(plain.latencies()), meanDuration(traced.latencies())
	lm["trace.overhead_pct"] = ratio(float64(tracedMean-plainMean)*100, float64(plainMean))
	if spec.open {
		lm["load.gen_late_p99_ms"] = ms(percentile(sortDurations(traced.late), 0.99))
	}

	if err := e.probe(ctx, cfg, bodies, lm); err != nil {
		return nil, fmt.Errorf("%s layer probes: %w", spec.name, err)
	}
	for _, m := range perLayer {
		res.set(m, lm[m.name], st.joins)
	}
	res.notes = append(res.notes, fmt.Sprintf("traced %d joins (%d spans); untraced half %d joins; calls and client engine cover %.2f%% of join time, client codec (the gaps between them) %.2f%%",
		st.joins, st.spansTotal, len(plain.joins), lm["trace.attributed_pct"], ratio(float64(st.codecNs)*100, float64(st.rootNs))))
	plain.merge(traced)
	return plain, nil
}

// timeReps returns fn's mean duration over reps calls.
func timeReps(reps int, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(t0) / time.Duration(reps), nil
}

// elements returns every element named name under n, n included.
func elements(n *xmldom.Node, name string, out []*xmldom.Node) []*xmldom.Node {
	if n.Type == xmldom.ElementNode && n.Name == name {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = elements(c, name, out)
	}
	return out
}

// probe replays what the traced window captured through each layer's
// public functions, one layer at a time.
func (e *env) probe(ctx context.Context, cfg *runConfig, bodies map[uint64][]string, lm map[string]float64) error {
	reps := cfg.probeReps
	var all []string
	for _, b := range bodies {
		all = append(all, b...)
	}
	joins := float64(len(bodies))
	if len(all) == 0 {
		return fmt.Errorf("no message bodies captured")
	}
	docs := make([]*xmldom.Node, len(all))
	parse, err := timeReps(reps, func() error {
		for i, b := range all {
			n, err := xmldom.ParseString(b)
			if err != nil {
				return fmt.Errorf("parse captured body: %w", err)
			}
			docs[i] = n
		}
		return nil
	})
	if err != nil {
		return err
	}
	serialize, _ := timeReps(reps, func() error {
		for _, n := range docs {
			_ = n.XML()
		}
		return nil
	})
	lm["xmldom.parse_us_per_join"] = us(parse) / joins
	lm["xmldom.serialize_us_per_join"] = us(serialize) / joins

	var msgs []*xmldom.Node
	for _, n := range docs {
		msgs = elements(n, "tnMessage", msgs)
	}
	decode, err := timeReps(reps, func() error {
		for _, m := range msgs {
			if _, err := negotiation.MessageFromDOM(m); err != nil {
				return fmt.Errorf("decode captured message: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm["negotiation.decode_us_per_join"] = us(decode) / joins
	lm["negotiation.messages_per_join"] = float64(len(msgs)) / joins

	var credDocs []*xmldom.Node
	for _, m := range msgs {
		credDocs = elements(m, "credential", credDocs)
	}
	creds := make([]*xtnl.Credential, len(credDocs))
	credDecode, err := timeReps(reps, func() error {
		for i, d := range credDocs {
			c, err := xtnl.CredentialFromDOM(d)
			if err != nil {
				return fmt.Errorf("decode captured credential: %w", err)
			}
			creds[i] = c
		}
		return nil
	})
	if err != nil {
		return err
	}
	if len(creds) > 0 {
		lm["xtnl.cred_decode_us"] = us(credDecode) / float64(len(creds))
		terms := xtnl.MustParsePolicies(membership + admissionRule)[0].Terms
		termEval, _ := timeReps(reps, func() error {
			for _, c := range creds {
				for _, t := range terms {
					t.SatisfiedBy(c)
				}
			}
			return nil
		})
		lm["xtnl.term_eval_us"] = us(termEval) / float64(len(creds)*len(terms))
		if err := probeVerify(e.ca, creds, reps, lm); err != nil {
			return err
		}
	}

	ctl := e.ctl
	if e.db != nil {
		load, err := timeReps(reps, func() error {
			p, err := partydb.LoadParty(e.db, e.ctl)
			ctl = p
			return err
		})
		if err != nil {
			return fmt.Errorf("load party: %w", err)
		}
		lm["partydb.load_us"] = us(load)
	}
	var member *negotiation.Party
	for i, m := range e.members {
		if !e.rogue[i] {
			member = m
			break
		}
	}
	engine, err := timeReps(reps, func() error {
		out, _, err := negotiation.Run(member, ctl, membership)
		if err != nil {
			return fmt.Errorf("in-process negotiation: %w", err)
		}
		if !out.Succeeded {
			return fmt.Errorf("in-process negotiation refused: %s", out.Reason)
		}
		return nil
	})
	if err != nil {
		return err
	}
	lm["negotiation.engine_us_per_join"] = us(engine)

	if e.tk != nil {
		return e.probeFig9(ctx, 5*reps, lm)
	}
	return nil
}

// probeVerify times pki.TrustStore.Verify on the captured credentials
// that verify: cold with the cache disabled, and warm on a hit.
func probeVerify(ca *pki.Authority, creds []*xtnl.Credential, reps int, lm map[string]float64) error {
	now := time.Now()
	cold := pki.NewTrustStore(ca)
	cold.DisableCache = true
	var good []*xtnl.Credential
	for _, c := range creds {
		if cold.Verify(c, now) == nil {
			good = append(good, c)
		}
	}
	if len(good) == 0 {
		return fmt.Errorf("no captured credential verifies")
	}
	warm := pki.NewTrustStore(ca)
	verifyAll := func(ts *pki.TrustStore) func() error {
		return func() error {
			for _, c := range good {
				if err := ts.Verify(c, now); err != nil {
					return err
				}
			}
			return nil
		}
	}
	miss, err := timeReps(reps, verifyAll(cold))
	if err != nil {
		return err
	}
	if err := verifyAll(warm)(); err != nil {
		return err
	}
	hit, err := timeReps(reps, verifyAll(warm))
	if err != nil {
		return err
	}
	lm["pki.verify_miss_us"] = us(miss) / float64(len(good))
	lm["pki.verify_hit_us"] = us(hit) / float64(len(good))
	return nil
}

// probeFig9 times the paper's three Fig. 9 bars, interleaved: the join
// with trust negotiation, the plain join (apply + direct admission), and
// the same negotiation against a standalone TN service.
func (e *env) probeFig9(ctx context.Context, n int, lm map[string]float64) error {
	mc := e.mcs[0]
	name := mc.Party.Name
	svc := e.newTN(e.ctl)
	svc.Metrics = telemetry.NewRegistry()
	mux := http.NewServeMux()
	svc.Register(mux)
	tn := &wsrpc.TNClient{BaseURL: e.serve(mux).URL, Party: mc.Party, Transport: e.wsT}
	var joinTN, plain, standalone []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, _, err := mc.Join(ctx, roleName); err != nil {
			return fmt.Errorf("join with TN: %w", err)
		}
		joinTN = append(joinTN, time.Since(t0))
		if err := e.tk.Initiator.VO.Remove(name); err != nil {
			return err
		}
		t0 = time.Now()
		if _, _, err := mc.Apply(ctx, roleName); err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		if _, err := mc.JoinDirect(ctx, roleName); err != nil {
			return fmt.Errorf("join direct: %w", err)
		}
		plain = append(plain, time.Since(t0))
		if err := e.tk.Initiator.VO.Remove(name); err != nil {
			return err
		}
		t0 = time.Now()
		out, err := tn.Negotiate(ctx, membership)
		if err != nil {
			return fmt.Errorf("standalone TN: %w", err)
		}
		if !out.Succeeded {
			return fmt.Errorf("standalone TN refused: %s", out.Reason)
		}
		standalone = append(standalone, time.Since(t0))
	}
	jt := percentile(sortDurations(joinTN), 0.5)
	j := percentile(sortDurations(plain), 0.5)
	t := percentile(sortDurations(standalone), 0.5)
	lm["core.join_plain_us"] = us(j)
	lm["wsrpc.tn_standalone_us"] = us(t)
	residual := jt - (j + t)
	if residual < 0 {
		residual = -residual
	}
	lm["core.additivity_residual_pct"] = ratio(float64(residual)*100, float64(jt))
	return nil
}
