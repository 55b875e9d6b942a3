// Package des implements a minimal discrete-event simulation kernel: a
// simulated clock and a pending-event heap with stable FIFO ordering for
// simultaneous events.
//
// The kernel is deliberately small; the domain logic (gossip, pulls, TTL,
// churn) lives in package sim and schedules plain callbacks here. Events
// cannot be cancelled: a model whose scheduled callback may outlive its
// reason (a TTL for a block already purged) checks that itself when the
// callback runs, as package sim does with peer generations and block
// identity.
package des

// event is one scheduled callback, stored by value in the heap.
type event struct {
	time float64
	seq  uint64 // scheduling order; breaks ties between equal times
	fn   func()
}

// before is the heap order: by time, then by scheduling order.
func (e *event) before(o *event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Sim is a discrete-event simulator. The zero value is ready to use and
// starts at time 0.
type Sim struct {
	now    float64
	seq    uint64
	queue  []event // 4-ary min-heap in (time, seq) order
	nRun   uint64
	halted bool
}

// New returns a simulator with its clock at zero.
func New() *Sim { return &Sim{} }

// Now returns the current simulated time.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events in the queue.
func (s *Sim) Pending() int { return len(s.queue) }

// At schedules fn at absolute simulated time t. Scheduling in the past
// (t < Now) panics: it indicates a logic error in the model.
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		panic("des: scheduling into the past")
	}
	s.push(event{time: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn after a delay d from the current time.
func (s *Sim) After(d float64, fn func()) {
	if d < 0 {
		panic("des: negative delay")
	}
	s.At(s.now+d, fn)
}

// Step executes the next event, advancing the clock. It returns false when
// the queue is empty.
func (s *Sim) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	s.run(s.pop())
	return true
}

// RunUntil executes events until the clock would pass the horizon or the
// queue empties or Halt is called. The clock ends at min(horizon, last event
// time); events scheduled beyond the horizon remain queued.
func (s *Sim) RunUntil(horizon float64) {
	s.halted = false
	for len(s.queue) > 0 && !s.halted && s.queue[0].time <= horizon {
		s.run(s.pop())
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run executes every queued event. Use only with models that stop
// generating events; recurrent processes must use RunUntil.
func (s *Sim) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// Halt stops RunUntil/Run after the currently executing event returns.
func (s *Sim) Halt() { s.halted = true }

func (s *Sim) run(e event) {
	s.now = e.time
	s.nRun++
	e.fn()
}

// push adds e to the heap, sifting it up from the new leaf. Parent of
// node i is (i-1)/4.
func (s *Sim) push(e event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
	s.queue = q
}

// pop removes and returns the earliest event. The queue must be non-empty.
// The vacated tail slot is zeroed so the heap holds no reference to a
// callback that already ran.
func (s *Sim) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	s.queue = q
	if n == 0 {
		return top
	}
	// Sift last down from the root; children of node i are 4i+1..4i+4.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j, end := c+1, min(c+4, n); j < end; j++ {
			if q[j].before(&q[m]) {
				m = j
			}
		}
		if !q[m].before(&last) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = last
	return top
}
