package fanout

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	const n = 100
	hits := make([]int32, n)
	ForEach(context.Background(), n, 7, func(_ context.Context, i int) {
		atomic.AddInt32(&hits[i], 1)
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d ran %d times", i, h)
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const n, limit = 64, 3
	var cur, peak int32
	ForEach(context.Background(), n, limit, func(_ context.Context, i int) {
		c := atomic.AddInt32(&cur, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if c <= p || atomic.CompareAndSwapInt32(&peak, p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		atomic.AddInt32(&cur, -1)
	})
	if got := atomic.LoadInt32(&peak); got > limit {
		t.Fatalf("peak concurrency %d > limit %d", got, limit)
	}
}

func TestForEachLimitOneIsSequentialInOrder(t *testing.T) {
	var order []int
	ForEach(context.Background(), 10, 1, func(_ context.Context, i int) {
		order = append(order, i) // no locking: limit=1 must not race
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("ran %d of 10", len(order))
	}
}

func TestForEachStopsLaunchingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	ForEach(ctx, 1000, 2, func(ctx context.Context, i int) {
		if atomic.AddInt32(&started, 1) == 2 {
			cancel()
		}
		<-ctx.Done()
	})
	if s := atomic.LoadInt32(&started); s > 10 {
		t.Fatalf("%d tasks started after cancel", s)
	}
}

func TestGroupCoalesces(t *testing.T) {
	var g Group[int]
	var execs int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]int, 10)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := g.DoCtx(context.Background(), "k", func() (int, error) {
				atomic.AddInt32(&execs, 1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if e := atomic.LoadInt32(&execs); e != 1 {
		t.Fatalf("fn executed %d times, want 1", e)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("results = %v", results)
		}
	}
}

func TestGroupSharesErrorAndForgets(t *testing.T) {
	var g Group[string]
	boom := errors.New("boom")
	if _, err := g.DoCtx(context.Background(), "k", func() (string, error) { return "", boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// The key is forgotten after completion: a later call re-executes.
	v, err := g.DoCtx(context.Background(), "k", func() (string, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("second Do = %q, %v", v, err)
	}
}

func TestGroupDistinctKeysRunIndependently(t *testing.T) {
	var g Group[int]
	var wg sync.WaitGroup
	vals := make([]int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = g.DoCtx(context.Background(), string(rune('a'+i)), func() (int, error) { return i, nil })
		}(i)
	}
	wg.Wait()
	for i, v := range vals {
		if v != i {
			t.Fatalf("vals = %v", vals)
		}
	}
}
