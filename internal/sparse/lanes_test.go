package sparse

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// TestLanesResetLeavesBankZero pins what Reset owes the next borrower: it
// clears only the lanes in each touched vertex's mask, so whatever the mix
// of writes — every one paired with a touch of its lane, as the kernels'
// are — the whole bank must read zero afterwards: every slot of vals, every
// mask word, the touched count. Sparse masks take the bit walk, full ones
// the row clear, and the randomized ones fall on both sides of the cut-over.
func TestLanesResetLeavesBankZero(t *testing.T) {
	const n = 257
	for _, p := range []int{1, 4} {
		l := NewLanes(n)
		rnd := rand.New(rand.NewSource(int64(p)))
		row := make([]float64, LaneStride)
		for i := range row {
			row[i] = float64(i + 1)
		}
		for round := 0; round < 20; round++ {
			for op := 0; op < 400; op++ {
				v := uint32(rnd.Intn(n))
				lane := rnd.Intn(LaneStride)
				one := uint64(1) << lane
				switch rnd.Intn(6) {
				case 0:
					l.Set(v, lane, rnd.Float64())
					l.TouchSerial(v, one)
				case 1:
					l.Add(v, lane, rnd.Float64())
					l.Touch(v, one)
				case 2:
					l.AtomicAdd(v, lane, rnd.Float64())
					l.Touch(v, one)
				case 3: // a few lanes: below the cut-over
					m := one | uint64(1)<<rnd.Intn(LaneStride) | uint64(1)<<rnd.Intn(LaneStride)
					l.AddMasked(v, row, m)
					l.TouchSerial(v, m)
				case 4: // about half the lanes: above it
					m := rnd.Uint64()
					l.AddMasked(v, row, m)
					l.Touch(v, m)
				case 5:
					l.AddMasked(v, row, ^uint64(0))
					l.TouchSerial(v, ^uint64(0))
				}
			}
			if round%2 == 1 {
				// Concurrent writers, as an edge phase at procs > 1 has them.
				var wg sync.WaitGroup
				for w := 0; w < 4; w++ {
					wg.Add(1)
					go func(seed int64) {
						defer wg.Done()
						r := rand.New(rand.NewSource(seed))
						for i := 0; i < 200; i++ {
							v, lane := uint32(r.Intn(n)), r.Intn(LaneStride)
							l.AtomicAdd(v, lane, 1)
							l.Touch(v, uint64(1)<<lane)
						}
					}(int64(round*4 + w))
				}
				wg.Wait()
			}
			if l.Len() == 0 {
				t.Fatalf("p=%d round %d: nothing touched", p, round)
			}
			l.Reset(p)
			if l.Len() != 0 || len(l.Touched()) != 0 {
				t.Fatalf("p=%d round %d: %d vertices still listed after Reset", p, round, l.Len())
			}
			for i, x := range l.vals {
				if x != 0 {
					t.Fatalf("p=%d round %d: vals[%d] (vertex %d lane %d) = %#x after Reset", p, round, i, i>>6, i&63, x)
				}
			}
			for v, m := range l.mask {
				if m != 0 {
					t.Fatalf("p=%d round %d: mask[%d] = %#x after Reset", p, round, v, m)
				}
			}
		}
	}
}

// BenchmarkLanesReset is the evidence behind laneClearWalk: the cost of
// resetting a bank whose touched vertices each hold the given number of
// live lanes, scattered over the row, as a walk over the mask's bits and as
// one clear of the row. Refilling the bank is outside the timer.
func BenchmarkLanesReset(b *testing.B) {
	const n, touched = 1 << 16, 1 << 13
	for _, live := range []int{1, 2, 4, 8, 16, 32, 64} {
		rnd := rand.New(rand.NewSource(int64(live)))
		masks := make([]uint64, touched)
		for i := range masks {
			for bits.OnesCount64(masks[i]) < live {
				masks[i] |= uint64(1) << rnd.Intn(LaneStride)
			}
		}
		verts := rnd.Perm(n)[:touched]
		row := make([]float64, LaneStride)
		for i := range row {
			row[i] = 1
		}
		b.Run(fmt.Sprintf("live=%d", live), func(b *testing.B) {
			l := NewLanes(n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j, v := range verts {
					l.AddMasked(uint32(v), row, masks[j])
					l.TouchSerial(uint32(v), masks[j])
				}
				b.StartTimer()
				l.Reset(1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/touched, "ns/vertex")
		})
	}
}
