package cluster

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"trustvo/internal/store"
	"trustvo/internal/xmldom"
)

// sealedCatchup seals a leader's <catchup> at epoch, standing at pos,
// carrying the store entries of chaos keys [lo, hi).
func sealedCatchup(t *testing.T, epoch, pos uint64, lo, hi int) string {
	t.Helper()
	return sealFrame(t, fmt.Sprintf(`<catchup epoch="%d" pos="%d">%s</catchup>`,
		epoch, pos, base64.StdEncoding.EncodeToString(encodeEntries(t, lo, hi))))
}

// postSealed posts a sealed replication frame to route at base and
// returns the reply's status and, on a <replicated> reply, the
// follower's applied position.
func postSealed(t *testing.T, base, route, body string) (int, uint64) {
	t.Helper()
	resp, err := http.Post(base+route, "application/xml", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	root, err := xmldom.Parse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if root.Name != "replicated" {
		return resp.StatusCode, 0
	}
	applied, err := strconv.ParseUint(root.AttrOr("applied", ""), 10, 64)
	if err != nil {
		t.Fatalf("%s: %s", route, root.XML())
	}
	return resp.StatusCode, applied
}

// TestReplayedCatchupDoesNotRollBack replays a sealed catch-up within
// its minute, after a window has taken the follower past the catch-up's
// position. The replay must apply nothing: the record the window wrote
// stays, and the follower answers its own position.
func TestReplayedCatchupDoesNotRollBack(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")

	catchup := sealedCatchup(t, 1, 1, 0, 1)
	if status, applied := postSealed(t, n.srv.URL, "/cluster/catchup", catchup); status != http.StatusOK || applied != 1 {
		t.Fatalf("catch-up: status %d, applied %d; want 200, 1", status, applied)
	}
	if applied := postReplicate(t, n.srv.URL, 1, 1, encodeEntries(t, 1, 2)); applied != 2 {
		t.Fatalf("window applied to %d, want 2", applied)
	}
	before := n.db.SnapshotEntries()

	if status, applied := postSealed(t, n.srv.URL, "/cluster/catchup", catchup); status != http.StatusOK || applied != 2 {
		t.Errorf("replayed catch-up: status %d, applied %d; want 200, 2", status, applied)
	}
	if got := n.node.Applied(); got != 2 {
		t.Errorf("applied position after the replay = %d, want 2", got)
	}
	if after := n.db.SnapshotEntries(); !reflect.DeepEqual(after, before) {
		t.Errorf("the replay changed the store: %v, was %v", after, before)
	}
}

// TestOlderLineageCatchupRefused replays a sealed catch-up of an older
// leader to a follower a newer leader has already resynced. The replay
// must leave the newer lineage's store and position as they are.
func TestOlderLineageCatchupRefused(t *testing.T) {
	c := newTestCluster(t, false, 0)
	defer c.shutdown()
	n := c.addNode("n1")

	old := sealedCatchup(t, 1, 3, 0, 3)
	if status, applied := postSealed(t, n.srv.URL, "/cluster/catchup", old); status != http.StatusOK || applied != 3 {
		t.Fatalf("old leader's catch-up: status %d, applied %d; want 200, 3", status, applied)
	}
	if status, applied := postSealed(t, n.srv.URL, "/cluster/catchup", sealedCatchup(t, 2, 2, 5, 7)); status != http.StatusOK || applied != 2 {
		t.Fatalf("new leader's catch-up: status %d, applied %d; want 200, 2", status, applied)
	}
	before := n.db.SnapshotEntries()

	if status, _ := postSealed(t, n.srv.URL, "/cluster/catchup", old); status == http.StatusOK {
		t.Errorf("the old leader's catch-up was accepted on the newer lineage")
	}
	if got, lineage := n.node.Applied(), n.node.Lineage(); got != 2 || lineage != 2 {
		t.Errorf("after the replay: applied %d, lineage %d; want 2, 2", got, lineage)
	}
	if after := n.db.SnapshotEntries(); !reflect.DeepEqual(after, before) {
		t.Errorf("the replay changed the store: %v, was %v", after, before)
	}
}

// encodeEntries is the WAL frame payload of chaos keys [lo, hi).
func encodeEntries(t *testing.T, lo, hi int) []byte {
	t.Helper()
	frames, err := store.EncodeEntries(makeEntries(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return frames
}
