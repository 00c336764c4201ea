package negotiation

import (
	"time"

	"trustvo/internal/telemetry"
)

// Phase names used in telemetry series and span names. They map onto the
// paper's two negotiation phases (§5): policy evaluation builds the
// negotiation tree, credential exchange walks the trust sequence.
const (
	phaseNameEval     = "policy-evaluation"
	phaseNameExchange = "credential-exchange"
)

// recvSpanNames names the span Handle opens for each message type, so
// that naming one costs no allocation whether or not tracing is on.
var recvSpanNames = func() (names [MsgFail + 1]string) {
	for t := range names {
		names[t] = "recv:" + MsgType(t).String()
	}
	return names
}()

// recvSpanName names the span of a received message of type t.
func recvSpanName(t MsgType) string {
	if t >= 0 && int(t) < len(recvSpanNames) {
		return recvSpanNames[t]
	}
	return "recv:" + t.String()
}

// begin arms the endpoint's telemetry on first protocol activity: phase
// timing when the party has a Metrics registry, span tracing when it has
// a Recorder. Idempotent; all recording sites below are nil-tolerant, so
// an un-instrumented party pays one branch per site.
func (e *Endpoint) begin() {
	if !e.startedAt.IsZero() {
		return
	}
	now := time.Now()
	e.startedAt, e.phaseAt = now, now
	if e.party.Recorder != nil {
		e.trace = telemetry.NewTrace()
		e.rootSpan = e.trace.StartSpan("negotiation").SetAttr("role", e.role.String())
		e.phaseSpan = e.rootSpan.StartChild("phase:" + phaseNameEval)
	}
}

// Trace returns the endpoint's span trace, nil unless the party set a
// Recorder (which enables tracing) and the negotiation has started.
func (e *Endpoint) Trace() *telemetry.Trace { return e.trace }

// enterExchange transitions phase 1 → phase 2, closing out the
// policy-evaluation phase span and latency observation.
func (e *Endpoint) enterExchange() {
	e.phase = phaseExchange
	now := time.Now()
	if m := e.party.Metrics; m != nil {
		m.LatencyHistogram("tn_phase_seconds", "phase", phaseNameEval, "role", e.role.String()).
			Observe(now.Sub(e.phaseAt).Seconds())
	}
	e.phaseAt = now
	e.phaseSpan.End()
	e.phaseSpan = e.rootSpan.StartChild("phase:" + phaseNameExchange)
}

// finishTelemetry records the terminal observations: outcome counters,
// the final phase and whole-negotiation latencies, round and tree-size
// distributions, and hands the finished trace to the Recorder. prev is
// the phase the endpoint was in when it finished.
func (e *Endpoint) finishTelemetry(prev phase, o *Outcome) {
	if e.startedAt.IsZero() {
		return // finished before any begin (defensive; not reached today)
	}
	now := time.Now()
	result := "failure"
	if o.Succeeded {
		result = "success"
	}
	if m := e.party.Metrics; m != nil {
		role := e.role.String()
		m.Counter("tn_negotiations_total", "role", role, "result", result).Inc()
		phaseName := phaseNameEval
		if prev == phaseExchange {
			phaseName = phaseNameExchange
		}
		m.LatencyHistogram("tn_phase_seconds", "phase", phaseName, "role", role).
			Observe(now.Sub(e.phaseAt).Seconds())
		m.LatencyHistogram("tn_negotiation_seconds", "role", role).
			Observe(now.Sub(e.startedAt).Seconds())
		m.Histogram("tn_rounds", telemetry.CountBuckets, "role", role).Observe(float64(e.rounds))
		if e.tree != nil {
			m.Histogram("tn_tree_nodes", telemetry.CountBuckets, "role", role).
				Observe(float64(e.tree.Len()))
		}
	}
	e.phaseSpan.End()
	e.rootSpan.SetAttr("resource", e.resource).SetAttr("result", result)
	if o.Reason != "" {
		e.rootSpan.SetAttr("reason", o.Reason)
	}
	e.rootSpan.End()
	if e.party.Recorder != nil && e.trace != nil {
		e.party.Recorder(e.trace)
	}
}

// countDisclosureSent/Received/VerifyFailure are the negotiation-level
// counters of the paper's Fig. 9 cost drivers.

func (e *Endpoint) countDisclosureSent() {
	if m := e.party.Metrics; m != nil {
		m.Counter("tn_disclosures_sent_total", "role", e.role.String()).Inc()
	}
}

func (e *Endpoint) countDisclosureReceived() {
	if m := e.party.Metrics; m != nil {
		m.Counter("tn_disclosures_received_total", "role", e.role.String()).Inc()
	}
}

// failVerify is fail plus the verification-failure counter, for the
// credential-verification error paths.
func (e *Endpoint) failVerify(reason string) *Message {
	if m := e.party.Metrics; m != nil {
		m.Counter("tn_verification_failures_total", "role", e.role.String()).Inc()
	}
	return e.fail(reason)
}
