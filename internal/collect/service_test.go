package collect

import (
	"errors"
	"testing"

	"p2pcollect/internal/collect/store"
	"p2pcollect/internal/obs"
	"p2pcollect/internal/peercore"
	"p2pcollect/internal/pullsched"
	"p2pcollect/internal/randx"
	"p2pcollect/internal/rlnc"
)

var errDiskFull = errors.New("disk full")

// failingStore is a store whose every Receive fails, as a durable store
// does when its log cannot be written.
type failingStore struct{ store.Store }

func (failingStore) Receive(float64, *rlnc.CodedBlock) (peercore.PullOutcome, *peercore.Collection, error) {
	return peercore.PullOutcome{}, nil, errDiskFull
}

// feedbackRecorder is a Blind policy that remembers every Feedback call.
type feedbackRecorder struct {
	pullsched.Blind
	got []pullsched.Feedback
}

func (p *feedbackRecorder) Feedback(f pullsched.Feedback) { p.got = append(p.got, f) }

func TestStoreErrorIsNotRedundant(t *testing.T) {
	mem, err := store.NewMemory(store.MemoryConfig{SegmentSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	policy := &feedbackRecorder{}
	svc, err := New(Config{Store: failingStore{mem}, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(1)
	id := rlnc.SegmentID{Origin: 1, Seq: 1}
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, 8)
		rng.FillCoefficients(blocks[i])
	}
	seg, err := rlnc.NewSegment(id, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, pulled := range []bool{true, false} {
		res := svc.HandleBlock(float64(i), 7, seg.Encode(rng), pulled, obs.TraceContext{})
		if !res.Rejected || res.Flush != nil {
			t.Fatalf("pulled=%v: failed Receive gave %+v, want Rejected", pulled, res)
		}
	}
	if n := svc.Redundant(); n != 0 {
		t.Errorf("Redundant() = %d after store errors, want 0", n)
	}
	counters := map[string]int64{}
	svc.RangeFeedback(func(name string, v int64) { counters[name] = v })
	if counters["storeErrors"] != 2 {
		t.Errorf("storeErrors = %d, want 2 (pulled and side-channel)", counters["storeErrors"])
	}
	if n := counters["pullschedFeedbackRedundant"]; n != 0 {
		t.Errorf("pullschedFeedbackRedundant = %d after store errors, want 0", n)
	}
	if len(policy.got) != 0 {
		t.Errorf("policy received feedback for store errors: %+v", policy.got)
	}
}
