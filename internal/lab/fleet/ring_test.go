package fleet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"butterfly/internal/core"
)

func members(ids ...string) []core.WorkerRecord {
	out := make([]core.WorkerRecord, len(ids))
	for i, id := range ids {
		out[i] = core.WorkerRecord{ID: id, URL: "http://" + id}
	}
	return out
}

func fps(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("fp-%04d-abcdef", i)
	}
	return out
}

// TestRingPlacementIsOrderIndependent: two processes that agree on the
// member set must agree on every placement, regardless of the order the
// members arrived in — that is what lets workers compute their own
// siblings from the membership list in heartbeat acks.
func TestRingPlacementIsOrderIndependent(t *testing.T) {
	a := NewRing(members("w1", "w2", "w3"))
	b := NewRing(members("w3", "w1", "w2"))
	for _, fp := range fps(200) {
		oa, _ := a.Owner(fp)
		ob, _ := b.Owner(fp)
		if oa.ID != ob.ID {
			t.Fatalf("placement depends on member order: %s vs %s for %s", oa.ID, ob.ID, fp)
		}
	}
}

// TestRingRemovalOnlyMovesTheDeadWorkersKeys: consistent hashing's whole
// point — when w2 dies, every key owned by w1 or w3 stays put.
func TestRingRemovalOnlyMovesTheDeadWorkersKeys(t *testing.T) {
	full := NewRing(members("w1", "w2", "w3"))
	reduced := NewRing(members("w1", "w3"))
	moved, kept := 0, 0
	for _, fp := range fps(300) {
		before, _ := full.Owner(fp)
		after, _ := reduced.Owner(fp)
		if before.ID == "w2" {
			if after.ID == "w2" {
				t.Fatalf("dead worker still owns %s", fp)
			}
			moved++
			continue
		}
		if after.ID != before.ID {
			t.Fatalf("key %s moved from surviving worker %s to %s", fp, before.ID, after.ID)
		}
		kept++
	}
	if moved == 0 || kept == 0 {
		t.Fatalf("degenerate distribution: moved=%d kept=%d", moved, kept)
	}
}

// TestRingBalance: 64 vnodes per worker must split a sweep roughly evenly —
// no worker starved, none doing the whole job.
func TestRingBalance(t *testing.T) {
	r := NewRing(members("w1", "w2", "w3"))
	counts := map[string]int{}
	const n = 600
	for _, fp := range fps(n) {
		o, ok := r.Owner(fp)
		if !ok {
			t.Fatal("owner missing on non-empty ring")
		}
		counts[o.ID]++
	}
	for id, c := range counts {
		if c < n/6 || c > n/2+n/10 {
			t.Errorf("worker %s owns %d of %d keys — too skewed", id, c, n)
		}
	}
}

// TestRingSuccessors: the failover order starts at the owner, visits each
// worker at most once, and covers the whole fleet.
func TestRingSuccessors(t *testing.T) {
	r := NewRing(members("w1", "w2", "w3"))
	for _, fp := range fps(50) {
		seq := r.Successors(fp, r.Len())
		if len(seq) != 3 {
			t.Fatalf("successors(%s) = %d workers, want 3", fp, len(seq))
		}
		owner, _ := r.Owner(fp)
		if seq[0].ID != owner.ID {
			t.Fatalf("successors(%s)[0] = %s, owner = %s", fp, seq[0].ID, owner.ID)
		}
		seen := map[string]bool{}
		for _, w := range seq {
			if seen[w.ID] {
				t.Fatalf("successors(%s) repeats %s", fp, w.ID)
			}
			seen[w.ID] = true
		}
	}
	if got := r.Successors("fp", 0); got != nil {
		t.Errorf("Successors(_, 0) = %v, want nil", got)
	}
}

// TestPickOwnerSkipsTwoSimultaneousDeaths: the reassignment walk must not
// hand a dead worker's jobs to a successor that is itself dead. The ring is
// a snapshot — two deaths recorded in the directory but not yet folded into
// a ring refresh leave both the owner and its successor on the ring — so
// pickOwner must check every candidate against the live directory and land
// on the first actually-placeable member, however many corpses in a row.
func TestPickOwnerSkipsTwoSimultaneousDeaths(t *testing.T) {
	c := NewCoordinator(CoordinatorConfig{DeadAfter: time.Hour, Logf: t.Logf})
	defer c.Close()
	for _, w := range members("w1", "w2", "w3") {
		c.dir.Beat(core.HeartbeatRequest{Worker: w})
	}
	c.refreshRing()

	for _, key := range fps(50) {
		seq := c.Ring().Successors(key, 3)
		// Both the owner and its immediate successor die; the ring is NOT
		// refreshed (that is the race under test).
		c.dir.MarkDead(seq[0].ID)
		c.dir.MarkDead(seq[1].ID)

		got, ok := c.pickOwner(key)
		if !ok {
			t.Fatalf("pickOwner(%s) found no owner with one live worker left", key)
		}
		if got.ID != seq[2].ID {
			t.Fatalf("pickOwner(%s) = %s, want the only live member %s (dead: %s, %s)",
				key, got.ID, seq[2].ID, seq[0].ID, seq[1].ID)
		}

		// Revive for the next key (a heartbeat marks alive again).
		c.dir.Beat(core.HeartbeatRequest{Worker: seq[0]})
		c.dir.Beat(core.HeartbeatRequest{Worker: seq[1]})
	}

	// All three dead: no owner, and pickOwner says so instead of returning
	// a corpse.
	for _, w := range members("w1", "w2", "w3") {
		c.dir.MarkDead(w.ID)
	}
	if _, ok := c.pickOwner("fp-anything"); ok {
		t.Fatal("pickOwner returned an owner from an all-dead fleet")
	}
}

// TestRefreshRingKeepsConcurrentJoins: workers joining at the same moment
// all land on the ring. Each join snapshots the live membership and stores
// a ring built from it; unserialized, an older snapshot could be stored
// last and leave a live worker unplaceable until the next membership change.
func TestRefreshRingKeepsConcurrentJoins(t *testing.T) {
	for round := 0; round < 200; round++ {
		c := NewCoordinator(CoordinatorConfig{DeadAfter: time.Hour})
		var wg sync.WaitGroup
		for _, w := range members("w1", "w2", "w3", "w4") {
			wg.Add(1)
			go func(w core.WorkerRecord) {
				defer wg.Done()
				if c.dir.Beat(core.HeartbeatRequest{Worker: w, Arrival: true}) {
					c.refreshRing()
				}
			}(w)
		}
		wg.Wait()
		c.Close()
		if n := c.Ring().Len(); n != 4 {
			t.Fatalf("round %d: ring holds %d of 4 joined workers", round, n)
		}
	}
}

// TestRingEmptyAndDuplicates: an empty ring owns nothing; duplicate IDs
// collapse to one member.
func TestRingEmptyAndDuplicates(t *testing.T) {
	empty := NewRing(nil)
	if _, ok := empty.Owner("fp"); ok {
		t.Error("empty ring claims an owner")
	}
	if empty.Len() != 0 {
		t.Errorf("empty ring Len = %d", empty.Len())
	}
	dup := NewRing(append(members("w1"), members("w1")...))
	if dup.Len() != 1 {
		t.Errorf("duplicate member counted twice: Len = %d", dup.Len())
	}
}
