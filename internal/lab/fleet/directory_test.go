package fleet

import (
	"context"
	"testing"
	"time"

	"butterfly/internal/core"
)

func testDirectory(deadAfter time.Duration) (*Directory, *time.Time) {
	d := NewDirectory(deadAfter)
	now := time.Unix(1_000_000, 0)
	d.now = func() time.Time { return now }
	return d, &now
}

func TestDirectoryLifecycle(t *testing.T) {
	d, now := testDirectory(time.Second)
	w := core.WorkerRecord{ID: "w1", URL: "http://w1"}

	if !d.Upsert(w) {
		t.Fatal("first join not reported as a membership change")
	}
	if d.Upsert(w) {
		t.Error("repeat join of a live worker reported as a change")
	}
	if d.Life("w1").Err() != nil {
		t.Fatal("joined worker not alive")
	}

	// Silence for longer than deadAfter downs the worker — exactly once.
	*now = now.Add(1500 * time.Millisecond)
	dead := d.Sweep()
	if len(dead) != 1 || dead[0].ID != "w1" {
		t.Fatalf("sweep = %v, want [w1]", dead)
	}
	if len(d.Sweep()) != 0 {
		t.Error("second sweep re-reported the same death")
	}
	if d.Life("w1").Err() == nil {
		t.Error("swept worker still alive")
	}

	// A heartbeat revives it (implicit rejoin) and reports the change.
	if !d.Beat(core.HeartbeatRequest{Worker: w, PeerHits: 3, Simulated: 7}) {
		t.Fatal("revival heartbeat not reported as a change")
	}
	h := d.Health()
	if len(h) != 1 || !h[0].Alive || h[0].PeerHits != 3 || h[0].Simulated != 7 {
		t.Fatalf("health after revival = %+v", h)
	}
}

func TestDirectoryMarkDead(t *testing.T) {
	d, _ := testDirectory(time.Hour) // heartbeat timeout far away: only MarkDead acts
	d.Upsert(core.WorkerRecord{ID: "w1", URL: "http://w1"})
	d.Upsert(core.WorkerRecord{ID: "w2", URL: "http://w2"})

	if !d.MarkDead("w1") {
		t.Fatal("MarkDead on a live worker reported nothing")
	}
	if d.MarkDead("w1") {
		t.Error("MarkDead twice reported a second transition")
	}
	if d.MarkDead("ghost") {
		t.Error("MarkDead on an unknown worker reported a transition")
	}
	live := d.Live()
	if len(live) != 1 || live[0].ID != "w2" {
		t.Fatalf("live = %v, want [w2]", live)
	}
}

// TestDirectoryURLChange: a worker rejoining under a new URL (same identity,
// new port) must be reported as a change so the ring and client cache refresh.
func TestDirectoryURLChange(t *testing.T) {
	d, _ := testDirectory(time.Second)
	d.Upsert(core.WorkerRecord{ID: "w1", URL: "http://old"})
	if !d.Upsert(core.WorkerRecord{ID: "w1", URL: "http://new"}) {
		t.Error("URL change not reported")
	}
	live := d.Live()
	if len(live) != 1 || live[0].URL != "http://new" {
		t.Fatalf("live = %v, want the new URL", live)
	}
}

// TestDirectoryLifeEndsOnDeath: a member's life context is canceled by
// every path that downs it — Sweep, for a failed or a drained worker, and
// MarkDead — and a worker that comes back starts a fresh one. Dispatches
// wait on it instead of polling Alive.
func TestDirectoryLifeEndsOnDeath(t *testing.T) {
	d, now := testDirectory(time.Second)
	w1 := core.WorkerRecord{ID: "w1", URL: "http://w1"}
	w2 := core.WorkerRecord{ID: "w2", URL: "http://w2"}
	w3 := core.WorkerRecord{ID: "w3", URL: "http://w3"}
	d.Upsert(w1)
	d.Upsert(w2)
	d.Upsert(w3)
	if d.Life("ghost").Err() == nil {
		t.Error("an unknown worker has a live context")
	}
	life1, life2, life3 := d.Life("w1"), d.Life("w2"), d.Life("w3")
	for id, life := range map[string]context.Context{"w1": life1, "w2": life2, "w3": life3} {
		if life.Err() != nil {
			t.Fatalf("%s joined with its life already over", id)
		}
	}
	// A live worker's beats and repeat joins continue the same life.
	d.Upsert(w1)
	d.Beat(core.HeartbeatRequest{Worker: w1})
	if d.Life("w1") != life1 {
		t.Error("a beat from a live worker replaced its life")
	}

	// w1 goes silent, w3 departs and then goes silent; w2 keeps beating.
	d.Depart("w3")
	if life3.Err() != nil {
		t.Error("a departure ended the life its in-flight jobs still need")
	}
	*now = now.Add(1500 * time.Millisecond)
	d.Beat(core.HeartbeatRequest{Worker: w2})
	d.Sweep()
	if life1.Err() == nil || life3.Err() == nil {
		t.Errorf("Sweep left a downed worker's life live: w1 %v, w3 %v", life1.Err(), life3.Err())
	}
	if life2.Err() != nil {
		t.Error("Sweep ended a beating worker's life")
	}
	if d.Life("w1").Err() == nil {
		t.Error("a swept worker still hands out a live context")
	}

	d.MarkDead("w2")
	if life2.Err() == nil {
		t.Error("MarkDead left the worker's life live")
	}

	// Coming back starts a new life; the old one stays over.
	d.Beat(core.HeartbeatRequest{Worker: w1})
	d.Upsert(w2)
	for id, old := range map[string]context.Context{"w1": life1, "w2": life2} {
		if fresh := d.Life(id); fresh == old || fresh.Err() != nil {
			t.Errorf("%s rejoined without a fresh live context", id)
		}
		if old.Err() == nil {
			t.Errorf("%s's rejoin revived its old context", id)
		}
	}
}
