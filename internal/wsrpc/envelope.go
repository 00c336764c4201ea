// Package wsrpc is the service layer of the paper's architecture
// (Fig. 5): the TN web service with its three operations —
// StartNegotiation, PolicyExchange and CredentialExchange (§6.2) — and
// the VO Management toolkit services (Host/Initiator/Member editions,
// §6.1), all speaking XML envelopes over HTTP.
//
// The paper's prototype used Tomcat + Axis SOAP; this reproduction keeps
// the same operation set, message schema and round-trip structure on
// net/http (see DESIGN.md §3 for the substitution rationale).
package wsrpc

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"trustvo/internal/negotiation"
	"trustvo/internal/xmldom"
)

// ContentType is the media type of all wsrpc payloads.
const ContentType = "application/xml"

// contentType is the Content-Type value of every wsrpc and cluster
// request and reply, shared by all of them: its capacity is 1, so an Add
// to a header holding it reallocates rather than write into it.
var contentType = []string{ContentType}

// SetContentType sets h's Content-Type to ContentType without the
// allocation of Header.Set.
func SetContentType(h http.Header) { h["Content-Type"] = contentType }

// MaxBody bounds the bodies of TN requests and replies (1 MiB is
// generous for TN messages): a longer body is cut there, and the cut
// document fails to parse. A cluster router reads exchange bodies under
// the same bound.
const MaxBody = 1 << 20

// defaultHTTP stands in for a Transport's nil HTTP: requests go through
// http.DefaultTransport, and its Timeout caps each attempt even when
// RequestTimeout is negative, where http.DefaultClient would wait
// without bound.
var defaultHTTP = &http.Client{Timeout: 30 * time.Second}

// Fault is the error payload: <fault code="...">detail</fault>.
type Fault struct {
	Code   string
	Detail string
}

// Error implements error.
func (f *Fault) Error() string { return "wsrpc: fault " + f.Code + ": " + f.Detail }

// Encode writes the fault document: <fault code="…">detail</fault>.
func (f *Fault) Encode(w *xmldom.Writer) {
	w.Start("fault")
	w.Attr("code", f.Code)
	w.Text(f.Detail)
	w.End()
}

// XML serializes the fault in canonical form.
func (f *Fault) XML() string { return xmldom.String(f.Encode) }

// decode reads the <fault> whose start tag r has just read.
func (f *Fault) decode(r *xmldom.Reader) {
	f.Code, f.Detail = r.AttrOr("code", "unknown"), r.Text()
}

// writeFault emits a fault response with the HTTP status.
func writeFault(w http.ResponseWriter, status int, code, detail string) {
	SetContentType(w.Header())
	w.WriteHeader(status)
	io.WriteString(w, (&Fault{Code: code, Detail: detail}).XML())
}

// chunkPool holds the buffers ReadBody reads into first, so a body that
// fits one costs a single allocation: its string.
var chunkPool = sync.Pool{New: func() any { return new([4096]byte) }}

// ReadBody reads r into one string, cut at limit bytes as an
// io.LimitReader would cut it. Past the first chunk the buffer doubles as
// bytes arrive, up to the limit; no length the sender declared sizes it.
// The TN service, the toolkit, the client transport and the cluster
// read every message body through it, then parse the string once.
func ReadBody(r io.Reader, limit int) (string, error) {
	chunk := chunkPool.Get().(*[4096]byte)
	defer chunkPool.Put(chunk)
	buf := chunk[:0:min(len(chunk), limit)]
	for {
		if len(buf) == cap(buf) {
			if len(buf) == limit {
				break
			}
			grown := make([]byte, len(buf), min(2*cap(buf), limit))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", err
		}
	}
	return string(buf), nil
}

// envelopeXML wraps a TN message with its negotiation id and, when seq
// is positive, a client sequence number:
//
//	<envelope negotiation="id" seq="7"><tnMessage .../></envelope>
//
// The sequence number gives exchange requests at-most-once semantics:
// the service caches the reply per sequence number, so a retried or
// duplicated envelope replays the cached reply instead of being applied
// twice. Replies carry no seq.
func envelopeXML(negID string, seq int64, m *negotiation.Message) string {
	return xmldom.String(func(w *xmldom.Writer) {
		w.Start("envelope")
		w.Attr("negotiation", negID)
		if seq > 0 {
			w.AttrInt("seq", seq)
		}
		m.Encode(w)
		w.End()
	})
}

// startRequestXML is the StartNegotiation request:
// <startNegotiationRequest resource=… strategy=…/>.
func startRequestXML(strategy, resource string) string {
	return xmldom.String(func(w *xmldom.Writer) {
		w.Start("startNegotiationRequest")
		w.Attr("strategy", strategy)
		w.Attr("resource", resource)
		w.End()
	})
}

// startResponseXML is the StartNegotiation response:
// <startNegotiationResponse negotiation=…/>.
func startResponseXML(negID string) string {
	return xmldom.String(func(w *xmldom.Writer) {
		w.Start("startNegotiationResponse")
		w.Attr("negotiation", negID)
		w.End()
	})
}

// statusXML reports a session's state, and its outcome once there is one:
// <status negotiation=… done=… succeeded=… reason=…/>.
func statusXML(negID string, done bool, out *negotiation.Outcome) string {
	return xmldom.String(func(w *xmldom.Writer) {
		w.Start("status")
		w.Attr("negotiation", negID)
		w.Attr("done", boolStr(done))
		if out != nil {
			w.Attr("succeeded", boolStr(out.Succeeded))
			if out.Reason != "" {
				w.Attr("reason", out.Reason)
			}
		}
		w.End()
	})
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// Envelope is a decoded exchange envelope. Its strings are substrings
// of the body it was decoded from.
type Envelope struct {
	// ID is the negotiation id, set whenever the body is an <envelope>,
	// even one that fails to decode: the cluster routes by it.
	ID string
	// Seq is the client sequence number, 0 for envelopes from
	// pre-sequence clients (no seq attribute at all).
	Seq int64
	// Type is the type attribute of the first <tnMessage>, as written,
	// set even when the message does not decode.
	Type string
	// Message is the decoded message, nil when Err is set.
	Message *negotiation.Message
	// Err is the schema error the TN service answers with, nil when the
	// envelope decoded.
	Err error
}

// DecodeEnvelope decodes an exchange body from its bytes, building no
// tree but a <sealed> ticket's. err is the body's syntax error, which
// wins over any schema error, as parsing the body first would have it;
// the schema error is env.Err.
func DecodeEnvelope(body string) (env *Envelope, err error) {
	r := xmldom.NewReader(body)
	env = new(Envelope)
	if r.Child(0) {
		env.decode(r)
	}
	if err := r.Close(); err != nil {
		return nil, err // a body without a root is one too
	}
	return env, nil
}

// decode reads the <envelope> whose start tag r has just read, to its
// end: the one decoder of the layout envelopeXML writes.
//
// A present but malformed seq, empty included, is rejected with a typed
// *Error (code "envelope") rather than silently collapsed to 0: seq 0
// means "no at-most-once protection", so swallowing the parse error would
// let a corrupted retry bypass the reply cache and be applied twice.
func (e *Envelope) decode(r *xmldom.Reader) {
	if r.Name() != "envelope" {
		e.Err = fmt.Errorf("wsrpc: expected <envelope>, got <%s>", r.Name())
		return
	}
	e.ID = r.AttrOr("negotiation", "")
	if e.ID == "" {
		e.Err = fmt.Errorf("wsrpc: envelope without negotiation id")
	} else if raw, ok := r.Attr("seq"); ok {
		seq, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || seq <= 0 {
			e.Err = &Error{
				Op:     "envelope",
				Status: http.StatusBadRequest,
				Code:   "envelope",
				Err:    fmt.Errorf("wsrpc: malformed envelope seq %q", raw),
			}
		}
		e.Seq = seq
	}
	found := false
	for d := r.Depth(); r.Child(d); {
		if r.Name() != "tnMessage" || found {
			continue
		}
		found = true
		e.Type = r.AttrOr("type", "")
		if e.Err == nil {
			e.Message, e.Err = negotiation.DecodeMessage(r)
		}
	}
	if !found && e.Err == nil {
		e.Err = fmt.Errorf("wsrpc: envelope without tnMessage")
	}
	if e.Err != nil {
		e.Seq, e.Message = 0, nil
	}
}

// readStartRequest decodes a StartNegotiation request body: whether its
// root is <startNegotiationRequest>, and its strategy attribute
// ("standard" when absent). err is the body's syntax error.
func readStartRequest(body string) (strategy string, ok bool, err error) {
	r := xmldom.NewReader(body)
	if r.Child(0) && r.Name() == "startNegotiationRequest" {
		strategy, ok = r.AttrOr("strategy", "standard"), true
	}
	return strategy, ok, r.Close()
}
