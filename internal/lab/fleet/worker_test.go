package fleet

import (
	"net/http/httptest"
	"testing"
	"time"

	"butterfly/internal/core"
)

// TestBeatWalksPastDeadCoordinator: a worker whose current coordinator
// refuses connections tries the next one on its failover list within the
// same beat, so the first beat after a primary dies already acks at the
// coordinator that answers.
func TestBeatWalksPastDeadCoordinator(t *testing.T) {
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	_, _, liveURL := startCoordinator(t, time.Minute)

	w := NewWorker(WorkerConfig{
		Self:        core.WorkerRecord{ID: "w1", URL: "http://127.0.0.1:1"},
		Coordinator: deadURL,
		Logf:        t.Logf,
	})
	w.coords = []string{deadURL, liveURL}
	w.beat()
	if w.lastAck.Load() == 0 {
		t.Fatal("first beat did not ack past the dead coordinator")
	}
	if got := w.coordinator(); got != liveURL {
		t.Errorf("current coordinator = %s, want the live %s", got, liveURL)
	}
}
