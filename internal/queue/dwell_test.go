package queue

import (
	"bytes"
	"math/rand"
	"testing"

	"fade/internal/stats"
)

// TestDwellMatchesPerCycleSamples is the property behind recording
// occupancy as dwell time. Over random schedules of pushes, pops,
// throttles and drop hooks, several per cycle and with quiet
// stretches between, the dwell histogram must equal, bucket for bucket,
// one Histogram.Add(Len()) per cycle at the sample point, whether read
// mid-run or at the end. Both sample points the simulator uses are
// covered: the top of the cycle, before every change (the event queue),
// and mid-cycle, after some changes and before the rest (the unfiltered
// queue).
func TestDwellMatchesPerCycleSamples(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		for _, mid := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(8)
			q := NewBounded[int](capacity)
			var cycle, sampled uint64
			if mid {
				q.RecordOccupancy(func() uint64 { return max(cycle, sampled) })
			} else {
				q.RecordOccupancy(func() uint64 { return cycle + 1 })
			}
			ref := stats.NewHistogram()
			check := func(when string) {
				t.Helper()
				got, _ := q.Occupancy().MarshalJSON()
				want, _ := ref.MarshalJSON()
				if !bytes.Equal(got, want) {
					t.Fatalf("seed %d, mid-cycle %v, cycle %d (%s): dwell %s, per-cycle %s",
						seed, mid, cycle, when, got, want)
				}
			}
			quiet := 0
			changes := func() {
				if quiet > 0 {
					return
				}
				for k := rng.Intn(4); k > 0; k-- {
					switch op := rng.Intn(20); {
					case op < 8:
						q.Push(op)
					case op < 15:
						q.Pop()
					case op < 17:
						q.Throttle(rng.Intn(capacity + 1))
					default:
						if rng.Intn(2) == 0 {
							q.SetDropHook(nil)
						} else {
							q.SetDropHook(func() bool { return rng.Intn(3) == 0 })
						}
					}
					if rng.Intn(8) == 0 {
						check("between changes")
					}
				}
			}
			cycles := uint64(50 + rng.Intn(400))
			for cycle = 0; cycle < cycles; cycle++ {
				if quiet > 0 {
					quiet--
				} else if rng.Intn(10) == 0 {
					quiet = rng.Intn(30) // a stretch in which nothing changes
				}
				if !mid {
					ref.Add(q.Len())
					changes()
				} else {
					changes()
					ref.Add(q.Len())
					sampled = cycle + 1
					changes()
				}
				if rng.Intn(16) == 0 {
					check("end of cycle")
				}
			}
			q.StopOccupancy(cycles)
			check("after the run")
		}
	}
}

// TestOccupancyWithoutSource: a queue no clock drives still queues; its
// occupancy histogram just stays empty.
func TestOccupancyWithoutSource(t *testing.T) {
	q := NewBounded[int](4)
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.StopOccupancy(10)
	if q.Len() != 1 || q.Occupancy().Total() != 0 {
		t.Fatalf("len %d, %d occupancy samples; want 1 and 0", q.Len(), q.Occupancy().Total())
	}
}
