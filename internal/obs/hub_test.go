package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func snapOf(name string, v uint64) *Snapshot {
	return &Snapshot{Values: []Value{CounterValue(name, v)}}
}

func TestHubPublishReplaceEvict(t *testing.T) {
	h := NewHub(2)
	h.Publish("a", nil, snapOf("sim.cycles", 1))
	h.Publish("b", nil, snapOf("sim.cycles", 2))
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
	// Replacement keeps position and count.
	h.Publish("a", nil, snapOf("sim.cycles", 10))
	if h.Len() != 2 {
		t.Fatalf("Len after replace = %d, want 2", h.Len())
	}
	if got := h.Snapshots()[0].Snap.Counter("sim.cycles"); got != 10 {
		t.Fatalf("replaced entry = %d, want 10", got)
	}
	// Overflow evicts the oldest ("a", still in first position).
	h.Publish("c", nil, snapOf("sim.cycles", 3))
	snaps := h.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("Len after evict = %d, want 2", len(snaps))
	}
	if got := snaps[0].Snap.Counter("sim.cycles"); got != 2 {
		t.Fatalf("oldest after evict = %d, want 2 (entry b)", got)
	}
	// Nil snap removes.
	h.Publish("b", nil, nil)
	if h.Len() != 1 {
		t.Fatalf("Len after remove = %d, want 1", h.Len())
	}
}

func TestHubDisabled(t *testing.T) {
	h := NewHub(0)
	h.Publish("a", nil, snapOf("sim.cycles", 1))
	if h.Len() != 0 {
		t.Fatalf("disabled hub retained %d entries", h.Len())
	}
}

// TestHubConcurrent exercises Publish/Snapshots from many goroutines; run
// under -race this is the registry-sharing contract for concurrent runs.
func TestHubConcurrent(t *testing.T) {
	h := NewHub(8)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				h.Publish(fmt.Sprintf("run-%d", i), []Label{{Key: "run", Value: fmt.Sprint(i)}}, snapOf("sim.cycles", uint64(j)))
				_ = h.Snapshots()
			}
		}(i)
	}
	wg.Wait()
	if h.Len() > 8 {
		t.Fatalf("hub over capacity: %d", h.Len())
	}
	var b bytes.Buffer
	if err := WritePrometheus(&b, h.Snapshots()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "fade_sim_cycles") {
		t.Fatalf("exposition missing published series:\n%s", b.String())
	}
}

func TestGaugeAdd(t *testing.T) {
	var g Gauge
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				g.Add(1)
				g.Add(-1)
			}
			g.Add(2)
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 16 {
		t.Fatalf("Gauge.Add lost updates: %v, want 16", got)
	}
}
