package ris

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cascade"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// noTargets is an empty target table, for bases whose tests count
// nothing.
func noTargets(g *graph.Graph) *TargetIndex { return NewTargetIndex(g.N(), nil) }

// baseKeyOf returns the key AppendParallel takes from a parent at seed,
// without advancing anything.
func baseKeyOf(seed uint64) uint64 {
	return rng.New(seed).Uint64()
}

// TestBasePrefixMatchesKeyedBatch: a base prefix of 64·j sets is
// bit-identical to one AppendParallel batch whose parent yields the base
// key, at any worker count, so its law is the bulk kernel's
// (TestFastICMatchesReferenceChiSquare).
func TestBasePrefixMatchesKeyedBatch(t *testing.T) {
	g := wcTestGraph(t)
	for _, model := range []cascade.Model{cascade.IC, cascade.LT} {
		for _, j := range []int{1, 5, 32} {
			want := newSamplerPool(model).generate(graph.NewResidual(g), rng.New(71), 64*j, 1)
			for _, workers := range []int{1, 2, 4} {
				bs := NewBase(g, model, baseKeyOf(71), noTargets(g))
				fl, err := bs.growTo(graph.NewResidual(g), 64*j, workers, nil)
				if err != nil {
					t.Fatal(err)
				}
				sameSets(t, fmt.Sprintf("%v j=%d workers %d", model, j, workers), want, fl.sets)
			}
		}
	}
}

// TestBaseGrowthOrderIndependent: the base is a pure function of (key,
// length). Growing 2048 → 4096 → 6912 and 8192 → 2048 give the same sets
// at workers 1, 2 and 4; targets round up to whole chunks.
func TestBaseGrowthOrderIndependent(t *testing.T) {
	g := wcTestGraph(t)
	grow := func(workers int, targets ...int) *Collection {
		bs := NewBase(g, cascade.IC, 0xBA5E, noTargets(g))
		var sets *Collection
		for _, n := range targets {
			fl, err := bs.growTo(graph.NewResidual(g), n, workers, nil)
			if err != nil {
				t.Fatal(err)
			}
			sets = fl.sets
			if sets.Len()%interruptStride != 0 || sets.Len() < n {
				t.Fatalf("grown to %d sets for target %d", sets.Len(), n)
			}
		}
		return sets
	}
	want := grow(1, 8192, 2048)
	for _, workers := range []int{1, 2, 4} {
		stepped := grow(workers, 2048, 4096, 6900)
		if stepped.Len() != 6912 {
			t.Fatalf("workers %d: 6900 rounded to %d sets, want 6912", workers, stepped.Len())
		}
		prefix := NewCollection(g.N())
		prefix.appendRange(want, 0, stepped.Len())
		sameSets(t, fmt.Sprintf("workers %d: 2048→4096→6912 vs 8192→2048", workers), prefix, stepped)
		sameSets(t, fmt.Sprintf("workers %d: 8192→2048", workers), want, grow(workers, 8192, 2048))
	}
}

// TestBatcherAdoptsBase: a batcher with a base attached copies its
// shortfall from the base while the residual is untouched and the
// collection holds only base sets. The copies count as reused, never as
// drawn or requested, and leave the parent stream alone; the first
// removal, drop or restored snapshot detaches the base for good.
func TestBatcherAdoptsBase(t *testing.T) {
	g := wcTestGraph(t)
	first50 := make([]graph.NodeID, 50)
	for u := range first50 {
		first50[u] = graph.NodeID(u)
	}
	ti := NewTargetIndex(g.N(), first50)
	bs := NewBase(g, cascade.IC, 0xF1257, ti)
	parent := rng.New(3)
	st0, inc0 := parent.State()
	res := graph.NewResidual(g)

	b := NewBatcher(cascade.IC)
	b.SetTargets(ti)
	b.SetBase(bs)
	b.Sync(res)
	for _, target := range []int{100, 2048, 3000} {
		if n, err := b.GrowTo(res, parent, target, 2); err != nil || n != target {
			t.Fatalf("GrowTo(%d) = %d, %v", target, n, err)
		}
	}
	if st, inc := parent.State(); st != st0 || inc != inc0 {
		t.Fatal("copying from the base advanced the parent stream")
	}
	if s := b.Stats(); s.RRReused != 3000 || s.RRDrawn != 0 || s.RRRequested != 0 || s.RRBatches != 0 {
		t.Fatalf("after copying 3000 sets: %+v", s)
	}
	if bs.Len() != 3008 {
		t.Fatalf("base holds %d sets, want 3000 rounded up to 3008", bs.Len())
	}
	fl, _ := bs.growTo(res, 0, 1, nil)
	want := NewCollection(g.N())
	want.appendRange(fl.sets, 0, 3000)
	sameSets(t, "adopted", want, b.Collection())
	for u := graph.NodeID(0); u < 50; u++ {
		if got, w := b.Count(u), countContaining(want, u); got != w {
			t.Fatalf("coverage of %d over adopted sets: %d, want %d", u, got, w)
		}
	}

	// A removal moves the residual off the base: the top-up is drawn.
	res.Remove(7)
	b.Sync(res)
	kept := b.Len()
	b.GrowTo(res, parent, 4000, 2)
	if s := b.Stats(); s.RRDrawn != int64(4000-kept) || s.RRRequested != s.RRDrawn {
		t.Fatalf("top-up after a removal: %+v", s)
	}

	// A drop detaches the base even on an untouched residual.
	fresh := graph.NewResidual(g)
	b2 := NewBatcher(cascade.IC)
	b2.SetBase(bs)
	b2.GrowTo(fresh, parent, 500, 1)
	b2.Invalidate([]graph.NodeID{0})
	b2.GrowTo(fresh, parent, 1000, 1)
	if s := b2.Stats(); s.RRDrawn == 0 {
		t.Fatalf("top-up after a drop copied from the base: %+v", s)
	}
}

// TestBaseGrowthFaultLeavesBaseIntact: an interrupt or a panic during
// base growth leaves the base at its previous length with its mutex
// unlocked, and the next growth draws the same sets as an unfaulted one.
func TestBaseGrowthFaultLeavesBaseIntact(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	want, err := NewBase(g, cascade.IC, 9, noTargets(g)).growTo(res, 1024, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBase(g, cascade.IC, 9, noTargets(g))
	if _, err := bs.growTo(res, 256, 1, nil); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	var polls atomic.Int32
	b := NewBatcher(cascade.IC)
	b.SetBase(bs)
	b.SetInterrupt(func() error {
		if polls.Add(1) > 3 {
			return stop
		}
		return nil
	})
	if _, err := b.GrowTo(res, rng.New(1), 1024, 2); !errors.Is(err, stop) {
		t.Fatalf("interrupted growth returned %v", err)
	}
	if bs.Len() != 256 {
		t.Fatalf("interrupted growth left %d sets, want 256", bs.Len())
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panicking interrupt did not panic")
			}
		}()
		bs.growTo(res, 1024, 1, func() error {
			if polls.Add(1) > 6 {
				panic("injected")
			}
			return nil
		})
	}()
	if !bs.mu.TryLock() {
		t.Fatal("panic during growth left the base locked")
	}
	bs.mu.Unlock()
	if bs.Len() != 256 {
		t.Fatalf("panicking growth left %d sets, want 256", bs.Len())
	}
	got, err := bs.growTo(res, 1024, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameSets(t, "after faults", want.sets, got.sets)
}

// TestBaseConcurrentGrowth: batchers on several goroutines adopting from
// one base at once, each to its own target, copy exactly the prefix a
// base grown alone holds. CI runs it under -race.
func TestBaseConcurrentGrowth(t *testing.T) {
	g := wcTestGraph(t)
	want, err := NewBase(g, cascade.IC, 77, noTargets(g)).growTo(graph.NewResidual(g), 4096, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	bs := NewBase(g, cascade.IC, 77, noTargets(g))
	got := make([]*Collection, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := NewBatcher(cascade.IC)
			b.SetBase(bs)
			target := 512 * (i + 1)
			if n, err := b.GrowTo(graph.NewResidual(g), rng.New(uint64(i)), target, 1+i%3); err != nil || n != target {
				t.Errorf("goroutine %d: GrowTo(%d) = %d, %v", i, target, n, err)
				return
			}
			got[i] = b.Collection()
		}()
	}
	wg.Wait()
	for i, c := range got {
		if c == nil {
			continue
		}
		prefix := NewCollection(g.N())
		prefix.appendRange(want.sets, 0, c.Len())
		sameSets(t, fmt.Sprintf("goroutine %d", i), prefix, c)
	}
}

// TestBaseFootprintDoesNotWaitOnGrowth: Len and Footprint read the
// published snapshot while another goroutine holds the base's lock
// across a draw, and see the growth once it is published.
func TestBaseFootprintDoesNotWaitOnGrowth(t *testing.T) {
	g := wcTestGraph(t)
	res := graph.NewResidual(g)
	bs := NewBase(g, cascade.IC, 5, noTargets(g))
	if _, err := bs.growTo(res, 128, 1, nil); err != nil {
		t.Fatal(err)
	}
	_, before := bs.Footprint()
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan error)
	go func() {
		_, err := bs.growTo(res, 1024, 1, func() error {
			once.Do(func() {
				close(entered)
				<-release
			})
			return nil
		})
		done <- err
	}()
	<-entered // the growth holds the lock until release
	if sets, bytes := bs.Footprint(); sets != 128 || bytes != before || bs.Len() != 128 {
		t.Fatalf("during growth: %d sets, %d bytes, Len %d; want 128, %d", sets, bytes, bs.Len(), before)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sets, bytes := bs.Footprint()
	fl, _ := bs.growTo(res, 0, 1, nil)
	if sets != 1024 || bytes != fl.sets.Bytes() || bytes <= before {
		t.Fatalf("after growth: %d sets, %d bytes; want 1024, %d", sets, bytes, fl.sets.Bytes())
	}
}

// TestBaseAdoptAllocatesByContent: a fresh batcher adopting a first look
// from its base on a 120k-node graph allocates for the entries it copies
// (arena, offsets and roots with their doubling slack), not for a
// worst-case RR set of FullN entries past them.
func TestBaseAdoptAllocatesByContent(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 120_000, AvgDeg: 5, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := graph.NewResidual(g)
	bs := NewBase(g, cascade.IC, 0xADD, noTargets(g))
	fl, err := bs.growTo(res, 4096, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	const target = 4000
	copied := int64(fl.sets.offsets[target])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBatcher(cascade.IC)
	b.SetBase(bs)
	if n, err := b.GrowTo(res, rng.New(1), target, 2); err != nil || n != target {
		t.Fatalf("GrowTo(%d) = %d, %v", target, n, err)
	}
	runtime.ReadMemStats(&after)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	// Arena: exactly the copies. Offsets and roots: int32s appended one
	// by one, whose growth allocates at most five times their final
	// length (append's 1.25× steps).
	budget := 4*copied + 2*5*4*(target+1) + 4096
	if allocated > budget || allocated >= 2*int64(g.N()) {
		t.Fatalf("adopting %d sets (%d entries) allocated %d bytes, want <= %d and < 2·FullN = %d bytes",
			target, copied, allocated, budget, 2*g.N())
	}
	if got := b.Collection().Bytes(); got > 4*copied+2*2*4*(target+1) {
		t.Fatalf("adopted collection holds %d bytes for %d entries", got, copied)
	}
}

// TestFirstCountAllocatesByTargets: a fresh campaign's counting state is
// one counter per target. On a 120k-node graph with 50 targets, attaching
// the table and answering the first Count for every target allocates
// O(|T|) bytes — nothing per node of the graph — whether the counts come
// from the base (sets copied from a first look) or from a scan (sets
// drawn privately).
func TestFirstCountAllocatesByTargets(t *testing.T) {
	g, err := gen.Generate(gen.Config{Model: gen.PrefAttach, N: 120_000, AvgDeg: 5, Directed: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]graph.NodeID, 50)
	for i := range targets {
		targets[i] = graph.NodeID(i * 2399)
	}
	ti := NewTargetIndex(g.N(), targets)
	bs := NewBase(g, cascade.IC, 0xC0, ti)
	res := graph.NewResidual(g)
	if _, err := bs.growTo(res, 4096, 2, nil); err != nil {
		t.Fatal(err)
	}
	// Twice the 4-byte counters, the targets' and the scratch ones: the
	// race detector pads allocations.
	budget := uint64(8*(len(targets)+spareCounters) + 64)
	for _, fromBase := range []bool{true, false} {
		var m0, m1, m2, m3 runtime.MemStats
		b := NewBatcher(cascade.IC)
		runtime.ReadMemStats(&m0)
		b.SetTargets(ti)
		runtime.ReadMemStats(&m1)
		if fromBase {
			b.SetBase(bs)
		}
		if n, err := b.GrowTo(res, rng.New(1), 4000, 2); err != nil || n != 4000 {
			t.Fatalf("GrowTo(4000) = %d, %v", n, err)
		}
		var counts [50]int
		runtime.ReadMemStats(&m2)
		for i, u := range targets {
			counts[i] = b.Count(u)
		}
		runtime.ReadMemStats(&m3)
		for i, u := range targets {
			if want := countContaining(b.Collection(), u); counts[i] != want {
				t.Fatalf("from base %v: Count(%d) = %d, index says %d", fromBase, u, counts[i], want)
			}
		}
		setup, first := m1.TotalAlloc-m0.TotalAlloc, m3.TotalAlloc-m2.TotalAlloc
		if setup+first > budget {
			t.Fatalf("from base %v: attaching the table and the first Count allocated %d + %d bytes for %d targets, want <= %d (4·N is %d)",
				fromBase, setup, first, len(targets), budget, 4*g.N())
		}
	}
}
