package inflight

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilHandleIsSafe(t *testing.T) {
	var h *Handle
	if h.ID() != 0 || h.Snapshot(time.Now()) != (HandleSnapshot{}) {
		t.Fatal("nil handle identity should be the zero value")
	}
	h.SetPhase(PhaseVerify)
	h.GraphDone()
	h.SetGraphsTotal(7)
	h.AddCandidates(3)
	h.AddAnswers(1)
	h.GrowAux(1024)
	if h.StepCounter() != nil {
		t.Fatal("nil handle StepCounter should be nil")
	}
	if h.Cancel() {
		t.Fatal("nil handle Cancel should report false")
	}
	if h.Snapshot(time.Now()).Cancelled || h.Snapshot(time.Now()).Flagged {
		t.Fatal("nil handle flags should be false")
	}
	if h.CancelChan() != nil {
		t.Fatal("nil handle CancelChan should be nil")
	}
	caller := make(chan struct{})
	if got := h.MergeCancel(caller); got != (<-chan struct{})(caller) {
		t.Fatal("nil handle MergeCancel should return the caller channel unchanged")
	}
	snap := h.Snapshot(time.Now())
	if snap.ID != 0 {
		t.Fatal("nil handle Snapshot should be zero")
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	if h := r.Register(RegisterOptions{Engine: "x"}); h != nil {
		t.Fatal("nil registry Register should return nil handle")
	}
	r.Deregister(nil)
	if r.Cancel(1) || r.CancelAll() != 0 || r.Len() != 0 {
		t.Fatal("nil registry operations should be no-ops")
	}
	if snaps := r.Snapshot(); len(snaps) != 0 {
		t.Fatal("nil registry Snapshot should be empty")
	}
	a, b, c := r.Stats()
	if a != 0 || b != 0 || c != 0 {
		t.Fatal("nil registry Stats should be zero")
	}
}

func TestRegisterDeregisterLifecycle(t *testing.T) {
	r := NewRegistry(4)
	h := r.Register(RegisterOptions{Engine: "vcfv", Fingerprint: 0xabcd, Verdict: "ok"})
	if h == nil {
		t.Fatal("Register returned nil")
	}
	if h.ID() == 0 {
		t.Fatal("handle id should be nonzero")
	}
	if id := h.Snapshot(time.Now()); id.Engine != "vcfv" || id.Fingerprint != "000000000000abcd" {
		t.Fatalf("identity mismatch: %q %s", id.Engine, id.Fingerprint)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
	h.SetPhase(PhaseFilter)
	h.SetGraphsTotal(10)
	h.GraphDone()
	h.GraphDone()
	h.AddCandidates(2)
	h.AddAnswers(1)
	h.GrowAux(512)
	h.GrowAux(256) // must not shrink the high-water mark
	h.StepCounter().Add(4096)

	snaps := r.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("Snapshot len = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.ID != h.ID() || s.Engine != "vcfv" || s.Verdict != "ok" {
		t.Fatalf("snapshot identity mismatch: %+v", s)
	}
	if s.Fingerprint != "000000000000abcd" {
		t.Fatalf("fingerprint hex = %q", s.Fingerprint)
	}
	if s.Phase != "filter" || s.GraphsDone != 2 || s.GraphsTotal != 10 {
		t.Fatalf("progress mismatch: %+v", s)
	}
	if s.Candidates != 2 || s.Answers != 1 || s.AuxBytes != 512 || s.Steps != 4096 {
		t.Fatalf("counter mismatch: %+v", s)
	}

	r.Deregister(h)
	if r.Len() != 0 {
		t.Fatalf("Len after Deregister = %d, want 0", r.Len())
	}
	r.Deregister(h) // idempotent
	reg, ovf, _ := r.Stats()
	if reg != 1 || ovf != 0 {
		t.Fatalf("Stats = (%d,%d), want (1,0)", reg, ovf)
	}
}

func TestRegistryOverflowStillRuns(t *testing.T) {
	r := NewRegistry(2)
	h1 := r.Register(RegisterOptions{Engine: "a"})
	h2 := r.Register(RegisterOptions{Engine: "b"})
	h3 := r.Register(RegisterOptions{Engine: "c"}) // no free slot
	if h3 == nil {
		t.Fatal("overflow registration must still return a usable handle")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	_, ovf, _ := r.Stats()
	if ovf != 1 {
		t.Fatalf("overflowed = %d, want 1", ovf)
	}
	// The untracked handle still supports progress and cancellation.
	h3.SetPhase(PhaseVerify)
	if !h3.Cancel() {
		t.Fatal("untracked handle Cancel should work")
	}
	r.Deregister(h3)
	r.Deregister(h1)
	r.Deregister(h2)
	if r.Len() != 0 {
		t.Fatalf("Len = %d, want 0", r.Len())
	}
}

func TestCancelByID(t *testing.T) {
	r := NewRegistry(8)
	h := r.Register(RegisterOptions{Engine: "parallel"})
	if r.Cancel(h.ID() + 999) {
		t.Fatal("cancelling an unknown id should report false")
	}
	if !r.Cancel(h.ID()) {
		t.Fatal("first Cancel should report true")
	}
	select {
	case <-h.CancelChan():
	default:
		t.Fatal("cancel channel should be closed")
	}
	if !h.Snapshot(time.Now()).Cancelled {
		t.Fatal("Cancelled should be true")
	}
	if r.Cancel(h.ID()) {
		t.Fatal("second Cancel should report false")
	}
	_, _, cancels := r.Stats()
	if cancels != 1 {
		t.Fatalf("cancels = %d, want 1", cancels)
	}
	r.Deregister(h)
	if r.Cancel(h.ID()) {
		t.Fatal("cancelling a deregistered id should report false")
	}
}

func TestCancelAll(t *testing.T) {
	r := NewRegistry(8)
	var hs []*Handle
	for i := 0; i < 5; i++ {
		hs = append(hs, r.Register(RegisterOptions{Engine: "x"}))
	}
	hs[0].Cancel() // pre-cancelled: CancelAll must not double-count it
	if n := r.CancelAll(); n != 4 {
		t.Fatalf("CancelAll = %d, want 4", n)
	}
	for i, h := range hs {
		if !h.Snapshot(time.Now()).Cancelled {
			t.Fatalf("handle %d not cancelled", i)
		}
	}
	for _, h := range hs {
		r.Deregister(h)
	}
}

func TestMergeCancel(t *testing.T) {
	r := NewRegistry(4)

	t.Run("nil caller returns handle channel", func(t *testing.T) {
		h := r.Register(RegisterOptions{})
		defer r.Deregister(h)
		merged := h.MergeCancel(nil)
		h.Cancel()
		select {
		case <-merged:
		case <-time.After(time.Second):
			t.Fatal("merged channel did not close on Cancel")
		}
	})

	t.Run("caller close propagates", func(t *testing.T) {
		h := r.Register(RegisterOptions{})
		defer r.Deregister(h)
		caller := make(chan struct{})
		merged := h.MergeCancel(caller)
		close(caller)
		select {
		case <-merged:
		case <-time.After(time.Second):
			t.Fatal("merged channel did not close on caller close")
		}
	})

	t.Run("handle cancel propagates", func(t *testing.T) {
		h := r.Register(RegisterOptions{})
		defer r.Deregister(h)
		merged := h.MergeCancel(make(chan struct{}))
		h.Cancel()
		select {
		case <-merged:
		case <-time.After(time.Second):
			t.Fatal("merged channel did not close on handle Cancel")
		}
	})

	t.Run("deregister releases the merge goroutine", func(t *testing.T) {
		h := r.Register(RegisterOptions{})
		merged := h.MergeCancel(make(chan struct{}))
		r.Deregister(h)
		select {
		case <-merged:
		case <-time.After(time.Second):
			t.Fatal("merged channel did not close on Deregister")
		}
	})
}

func TestSnapshotSortedByAgeDescending(t *testing.T) {
	r := NewRegistry(8)
	old := r.Register(RegisterOptions{Engine: "old"})
	time.Sleep(5 * time.Millisecond)
	young := r.Register(RegisterOptions{Engine: "young"})
	defer r.Deregister(old)
	defer r.Deregister(young)
	snaps := r.Snapshot()
	if len(snaps) != 2 {
		t.Fatalf("len = %d, want 2", len(snaps))
	}
	if snaps[0].Engine != "old" || snaps[1].Engine != "young" {
		t.Fatalf("snapshot order wrong: %s, %s", snaps[0].Engine, snaps[1].Engine)
	}
	if snaps[0].AgeMS < snaps[1].AgeMS {
		t.Fatalf("ages not descending: %d < %d", snaps[0].AgeMS, snaps[1].AgeMS)
	}
}

func TestWriteTable(t *testing.T) {
	snaps := []HandleSnapshot{
		{ID: 7, Fingerprint: "00000000deadbeef", Engine: "parallel-cfql", Phase: "verify",
			AgeMS: 1500, GraphsDone: 3, GraphsTotal: 10, Candidates: 5, Answers: 2,
			Steps: 123456, AuxBytes: 2 << 20, Cancelled: true, Flagged: true},
		{ID: 8, Fingerprint: "0000000000000001", Engine: "vcfv", Phase: "starting",
			AgeMS: 10},
	}
	var buf bytes.Buffer
	WriteTable(&buf, snaps)
	out := buf.String()
	for _, want := range []string{"FINGERPRINT", "00000000deadbeef", "parallel-cfql", "verify", "3/10", "CW", "2.0MiB", "0/?"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("table lines = %d, want 3 (header + 2 rows):\n%s", lines, out)
	}
}

func TestPhaseString(t *testing.T) {
	cases := map[Phase]string{
		PhaseStarting: "starting",
		PhaseFilter:   "filter",
		PhaseVerify:   "verify",
		PhaseFused:    "filter+verify",
		Phase(99):     "unknown",
	}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Fatalf("Phase(%d).String() = %q, want %q", p, got, want)
		}
	}
}

// TestConcurrentRegistry hammers the registry from many goroutines:
// register/update/snapshot/cancel/deregister racing, ending empty.
func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry(32)
	const workers = 16
	const perWorker = 200
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			r.Snapshot()
			r.Len()
			r.CancelAll()
		}
	}()
	var wg sync.WaitGroup
	var cancelledSeen atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h := r.Register(RegisterOptions{Engine: "storm", Fingerprint: uint64(w<<16 | i)})
				h.SetPhase(PhaseFused)
				h.GraphDone()
				h.StepCounter().Add(1)
				if i%3 == 0 {
					r.Cancel(h.ID())
				}
				if h.Snapshot(time.Now()).Cancelled {
					cancelledSeen.Add(1)
				}
				r.Deregister(h)
			}
		}(w)
	}
	wg.Wait()
	close(stopPoll)
	<-pollDone
	if r.Len() != 0 {
		t.Fatalf("registry not empty at end: %d", r.Len())
	}
	reg, _, _ := r.Stats()
	if reg != workers*perWorker {
		t.Fatalf("registered = %d, want %d", reg, workers*perWorker)
	}
}

// TestHandleHotMethodsZeroAlloc gates the progress mutators the engines
// call per graph / per stride: they must not allocate.
func TestHandleHotMethodsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	r := NewRegistry(4)
	h := r.Register(RegisterOptions{Engine: "alloc"})
	defer r.Deregister(h)
	sc := h.StepCounter()
	if avg := testing.AllocsPerRun(1000, func() {
		h.SetPhase(PhaseVerify)
		h.GraphDone()
		h.AddCandidates(1)
		h.AddAnswers(1)
		h.GrowAux(64)
		sc.Add(4096)
	}); avg != 0 {
		t.Fatalf("hot handle methods allocate %.1f/op, want 0", avg)
	}
	// The nil (disabled) handle must also be free.
	var nh *Handle
	if avg := testing.AllocsPerRun(1000, func() {
		nh.SetPhase(PhaseVerify)
		nh.GraphDone()
		nh.AddCandidates(1)
		nh.GrowAux(64)
	}); avg != 0 {
		t.Fatalf("nil handle methods allocate %.1f/op, want 0", avg)
	}
	// Register allocates the handle and its channels, nothing per slot its
	// claim loop scans: with one free slot left it costs what it costs empty.
	register := func(r *Registry) float64 {
		return testing.AllocsPerRun(1000, func() { r.Deregister(r.Register(RegisterOptions{})) })
	}
	crowded := NewRegistry(64)
	for range 63 {
		crowded.Register(RegisterOptions{})
	}
	if empty, full := register(NewRegistry(64)), register(crowded); empty != full {
		t.Fatalf("Register allocates %.1f/op on an empty registry and %.1f/op with one slot free, want equal", empty, full)
	}
}
