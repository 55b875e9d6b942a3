package des

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var got []float64
	times := []float64{5, 1, 3, 2, 4}
	for _, ti := range times {
		ti := ti
		s.At(ti, func() { got = append(got, ti) })
	}
	s.Run()
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events out of order: %v", got)
	}
	if len(got) != len(times) {
		t.Errorf("ran %d events, want %d", len(got), len(times))
	}
	if s.Now() != 5 {
		t.Errorf("Now = %v, want 5", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(1, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	s := New()
	var at float64
	s.At(2, func() {
		s.After(3, func() { at = s.Now() })
	})
	s.Run()
	if at != 5 {
		t.Errorf("After fired at %v, want 5", at)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	var count int
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() { count++ })
	}
	s.RunUntil(5.5)
	if count != 5 {
		t.Errorf("ran %d events before horizon, want 5", count)
	}
	if s.Now() != 5.5 {
		t.Errorf("Now = %v, want 5.5", s.Now())
	}
	s.RunUntil(100)
	if count != 10 {
		t.Errorf("ran %d events total, want 10", count)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	s := New()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Errorf("Now = %v, want 7", s.Now())
	}
}

func TestRecurrentProcess(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		s.After(1, tick)
	}
	s.After(1, tick)
	s.RunUntil(10.5)
	if count != 10 {
		t.Errorf("recurrent process ticked %d times, want 10", count)
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count == 3 {
			s.Halt()
		}
		s.After(1, tick)
	}
	s.After(1, tick)
	s.RunUntil(100)
	if count != 3 {
		t.Errorf("Halt did not stop the run: %d events", count)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("At(past) did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("After(-1) did not panic")
		}
	}()
	New().After(-1, func() {})
}

func TestProcessedAndPending(t *testing.T) {
	s := New()
	s.At(1, func() {})
	s.At(2, func() {})
	if s.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", s.Pending())
	}
	s.Step()
	if s.Processed() != 1 {
		t.Errorf("Processed = %d, want 1", s.Processed())
	}
}

func TestHeapStress(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	var last float64
	ok := true
	for i := 0; i < 5000; i++ {
		s.At(rng.Float64()*100, func() {
			if s.Now() < last {
				ok = false
			}
			last = s.Now()
		})
	}
	s.Run()
	if !ok {
		t.Error("clock moved backwards during stress run")
	}
	if s.Processed() != 5000 {
		t.Errorf("Processed = %d, want 5000", s.Processed())
	}
}

// TestPropertyStableOrder drives the kernel with seeded random schedules:
// integer times with many exact ties, events scheduled from inside
// callbacks (zero delays tie with the running event), RunUntil horizons and
// Halt. Whatever the interleaving, the execution order must equal a stable
// sort of every scheduled event by time, keeping scheduling order on ties.
func TestPropertyStableOrder(t *testing.T) {
	type rec struct {
		time float64
		id   int
	}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var scheduled, ran []rec
		haltedAt := -1
		var schedule func(at float64)
		schedule = func(at float64) {
			r := rec{time: at, id: len(scheduled)}
			scheduled = append(scheduled, r)
			s.At(at, func() {
				if s.Now() != r.time {
					t.Fatalf("seed %d: event %d ran at %v, scheduled for %v", seed, r.id, s.Now(), r.time)
				}
				ran = append(ran, r)
				for k := rng.Intn(3); k > 0 && len(scheduled) < 3000; k-- {
					schedule(s.Now() + float64(rng.Intn(4)))
				}
				if rng.Intn(40) == 0 {
					s.Halt()
					haltedAt = len(ran)
				}
			})
		}
		for i := 0; i < 300; i++ {
			schedule(float64(rng.Intn(40)))
		}
		for s.Pending() > 0 {
			haltedAt = -1
			before := len(ran)
			horizon := s.Now() + float64(rng.Intn(6)) + 0.5*float64(rng.Intn(2))
			s.RunUntil(horizon)
			for _, r := range ran[before:] {
				if r.time > horizon {
					t.Fatalf("seed %d: event at %v ran before horizon %v", seed, r.time, horizon)
				}
			}
			switch {
			case haltedAt >= 0 && haltedAt != len(ran):
				t.Fatalf("seed %d: %d events ran after Halt", seed, len(ran)-haltedAt)
			case haltedAt < 0 && s.Pending() > 0 && s.queue[0].time <= horizon:
				t.Fatalf("seed %d: event at %v left queued at horizon %v", seed, s.queue[0].time, horizon)
			}
		}
		want := append([]rec(nil), scheduled...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].time < want[j].time })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d events, scheduled %d", seed, len(ran), len(want))
		}
		for i := range want {
			if ran[i] != want[i] {
				t.Fatalf("seed %d: position %d ran %+v, want %+v", seed, i, ran[i], want[i])
			}
		}
	}
}

// TestScheduleAndPopAllocFree pins the hot path: once the queue's backing
// array has grown, scheduling a pre-built callback and popping the next
// event allocates nothing.
func TestScheduleAndPopAllocFree(t *testing.T) {
	s := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		s.After(float64(i%7), fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(3, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+pop allocated %v times per op, want 0", allocs)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.At(rng.Float64()*1000, func() {})
		}
		s.Run()
	}
}
