package telemetry

import (
	"sync"
	"testing"
)

func TestRingEvictsOldest(t *testing.T) {
	r := NewRing[int](3)
	if got := r.Snapshot(); got == nil || len(got) != 0 {
		t.Fatalf("fresh snapshot = %v, want empty and non-nil", got)
	}
	for i := 1; i <= 5; i++ {
		r.Offer(i)
	}
	if r.Total() != 5 {
		t.Fatalf("total=%d, want 5", r.Total())
	}
	got := r.Snapshot()
	if len(got) != 3 {
		t.Fatalf("retained %d, want capacity 3", len(got))
	}
	// Newest first: 5, 4, 3.
	for i, want := range []int{5, 4, 3} {
		if got[i] != want {
			t.Fatalf("snapshot[%d] = %d, want %d", i, got[i], want)
		}
	}
}

// TestRingConcurrentEviction hammers a small ring from many writers while
// readers snapshot it: the retained set never exceeds the capacity, the
// total is exact, and every retained value is one that was offered, once.
// Under -race this also exercises the locking around eviction.
func TestRingConcurrentEviction(t *testing.T) {
	const (
		capacity = 8
		writers  = 16
		perW     = 200
	)
	r := NewRing[int](capacity)

	var readers, writerWG sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := r.Snapshot(); len(got) > capacity {
					t.Errorf("snapshot retained %d > capacity %d", len(got), capacity)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perW; i++ {
				r.Offer(w*perW + i)
			}
		}(w)
	}
	writerWG.Wait()
	close(stop)
	readers.Wait()

	if r.Total() != writers*perW {
		t.Fatalf("total = %d, want %d", r.Total(), writers*perW)
	}
	got := r.Snapshot()
	if len(got) != capacity {
		t.Fatalf("retained %d, want full capacity %d", len(got), capacity)
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= writers*perW || seen[v] {
			t.Fatalf("retained value %d was never offered or is retained twice", v)
		}
		seen[v] = true
	}
}
