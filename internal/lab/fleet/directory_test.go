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

// arrive sends a worker's first heartbeat, the way a starting Worker does.
func arrive(d *Directory, w core.WorkerRecord) bool {
	return d.Beat(core.HeartbeatRequest{Worker: w, Arrival: true})
}

// beat sends one of a running worker's later heartbeats.
func beat(d *Directory, w core.WorkerRecord) bool {
	return d.Beat(core.HeartbeatRequest{Worker: w})
}

func TestDirectoryLifecycle(t *testing.T) {
	d, now := testDirectory(time.Second)
	w := core.WorkerRecord{ID: "w1", URL: "http://w1"}

	if !arrive(d, w) {
		t.Fatal("first heartbeat not reported as a membership change")
	}
	if beat(d, w) || arrive(d, w) {
		t.Error("repeat heartbeat of a live worker reported as a change")
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
	arrive(d, core.WorkerRecord{ID: "w1", URL: "http://w1"})
	arrive(d, core.WorkerRecord{ID: "w2", URL: "http://w2"})

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
	arrive(d, core.WorkerRecord{ID: "w1", URL: "http://old"})
	if !arrive(d, core.WorkerRecord{ID: "w1", URL: "http://new"}) {
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
	arrive(d, w1)
	arrive(d, w2)
	arrive(d, w3)
	if d.Life("ghost").Err() == nil {
		t.Error("an unknown worker has a live context")
	}
	life1, life2, life3 := d.Life("w1"), d.Life("w2"), d.Life("w3")
	for id, life := range map[string]context.Context{"w1": life1, "w2": life2, "w3": life3} {
		if life.Err() != nil {
			t.Fatalf("%s joined with its life already over", id)
		}
	}
	// A live worker's beats, arrivals included, continue the same life.
	arrive(d, w1)
	beat(d, w1)
	if d.Life("w1") != life1 {
		t.Error("a beat from a live worker replaced its life")
	}

	// w1 goes silent, w3 departs and then goes silent; w2 keeps beating.
	d.Depart("w3")
	if life3.Err() != nil {
		t.Error("a departure ended the life its in-flight jobs still need")
	}
	*now = now.Add(1500 * time.Millisecond)
	beat(d, w2)
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
	beat(d, w1)
	arrive(d, w2)
	for id, old := range map[string]context.Context{"w1": life1, "w2": life2} {
		if fresh := d.Life(id); fresh == old || fresh.Err() != nil {
			t.Errorf("%s rejoined without a fresh live context", id)
		}
		if old.Err() == nil {
			t.Errorf("%s's rejoin revived its old context", id)
		}
	}
}

// TestDirectoryArrivalCancelsDrain: a draining worker's heartbeats keep it
// alive but off the placement set; only an arrival — the first beat of a
// restarted process under the same ID — makes it placeable again, and
// reports the change so the ring refreshes.
func TestDirectoryArrivalCancelsDrain(t *testing.T) {
	d, _ := testDirectory(time.Second)
	w := core.WorkerRecord{ID: "w1", URL: "http://w1"}
	arrive(d, w)
	if !d.Depart("w1") {
		t.Fatal("departure of a placeable worker not reported")
	}
	if beat(d, w) || d.Placeable("w1") {
		t.Fatal("a draining worker's heartbeat made it placeable again")
	}
	if d.Life("w1").Err() != nil {
		t.Fatal("a draining worker's heartbeat ended its life")
	}
	if !arrive(d, w) {
		t.Error("an arrival that cancels a drain not reported as a change")
	}
	if !d.Placeable("w1") || len(d.Live()) != 1 {
		t.Errorf("arrived worker not placeable: live = %v", d.Live())
	}
}
