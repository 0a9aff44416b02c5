package spans

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"fade/internal/obs"
)

// sealView is everything a reader can observe of a trace.
type sealView struct {
	spans               []Span
	len, cap            int
	emitted, dropped    uint64
	tracks              []string
	metrics             map[string]float64
	chrome, jsonl       []byte
	chromeErr, jsonlErr error
}

func viewOf(tr *Trace) sealView {
	reg := obs.NewRegistry()
	reg.Register(tr.Collector())
	snap := reg.Snapshot()
	metrics := map[string]float64{}
	for _, name := range []string{"spans.emitted", "spans.dropped", "spans.ring.occupancy", "spans.ring.capacity"} {
		metrics[name], _ = snap.Get(name)
	}
	var chrome, jsonl bytes.Buffer
	v := sealView{
		spans: tr.Spans(), len: tr.Len(), cap: tr.Cap(),
		emitted: tr.Emitted(), dropped: tr.Dropped(), tracks: tr.Tracks(),
		metrics: metrics,
	}
	v.chromeErr = WriteChromeJSON(&chrome, tr)
	v.jsonlErr = WriteJSONL(&jsonl, tr)
	v.chrome, v.jsonl = chrome.Bytes(), jsonl.Bytes()
	return v
}

// randomArg draws an absent, numeric, string, empty-keyed or mixed
// argument over the given string pool.
func randomArg(rng *rand.Rand, pool []string) Arg {
	pick := func() string { return pool[rng.Intn(len(pool))] }
	switch rng.Intn(6) {
	case 0:
		return None
	case 1:
		return Num(pick(), rng.Uint64())
	case 2:
		return Str(pick(), pick())
	case 3:
		return Arg{Str: pick(), Num: uint64(rng.Intn(3))} // empty key
	case 4:
		return Str(pick(), "") // empty string: reads as the number 0
	default:
		return Arg{Key: pick(), Str: pick(), Num: rng.Uint64()}
	}
}

// randomTrace emits a random span stream into a trace of random capacity:
// some streams wrap the ring, some do not, and some draw from a pool of
// more than 255 distinct strings.
func randomTrace(rng *rand.Rand, id int) *Trace {
	capacity := []int{1, 4, 37, 512}[rng.Intn(4)]
	pool := []string{""}
	for i, n := 0, []int{3, 40, 600}[rng.Intn(3)]; i < n; i++ {
		pool = append(pool, fmt.Sprintf("s%d\"\n%d", i, rng.Intn(10)))
	}
	pool = append(pool, Names...)
	tr := New(fmt.Sprintf("r-%06d", id), capacity)
	tracks := []int32{WallTrack}
	for i := rng.Intn(3); i > 0; i-- {
		tracks = append(tracks, tr.NewTrack(fmt.Sprintf("sim/app%d", i)))
	}
	epoch := tr.Epoch()
	for i, n := 0, rng.Intn(2*capacity+2); i < n; i++ {
		name := pool[rng.Intn(len(pool))]
		var a [2]Arg
		for j := rng.Intn(3) - 1; j >= 0; j-- {
			a[j] = randomArg(rng, pool)
		}
		at := uint64(rng.Intn(1 << 20))
		track := tracks[rng.Intn(len(tracks))]
		switch rng.Intn(4) {
		case 0:
			start := epoch.Add(time.Duration(at) * time.Microsecond)
			tr.Wall(name, start, start.Add(time.Duration(rng.Intn(500))*time.Microsecond), a[0], a[1])
		case 1:
			tr.WallInstant(name, epoch.Add(time.Duration(at)*time.Microsecond), a[0], a[1])
		case 2:
			tr.CycleSpan(track, name, at, at+uint64(rng.Intn(100)), a[0], a[1])
		default:
			tr.CycleInstant(track, name, at, a[0], a[1])
		}
	}
	return tr
}

// TestSealRoundTrip: sealing packs a trace without changing anything a
// reader sees. Cap and spans.ring.capacity report the spans held after
// Seal, as they did before spans were packed.
func TestSealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var wrapped, unwrapped, wideTables int
	for id := 0; id < 200; id++ {
		tr := randomTrace(rng, id)
		before := viewOf(tr)
		tr.Seal()
		if tr.buf != nil {
			t.Fatalf("trace %d: Seal left the spans unpacked", id)
		}
		if len(tr.strs) > 256 {
			wideTables++
		}
		if before.dropped > 0 {
			wrapped++
		} else {
			unwrapped++
		}
		want := before
		want.cap = before.len
		want.metrics = map[string]float64{}
		for k, v := range before.metrics {
			want.metrics[k] = v
		}
		want.metrics["spans.ring.capacity"] = float64(before.len)
		if got := viewOf(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d changed by Seal:\nbefore %+v\nafter  %+v", id, want, got)
		}

		late := rng.Intn(4)
		for i := 0; i < late; i++ {
			tr.CycleInstant(WallTrack, NameCheckpoint, uint64(i), Str("late", "x"), None)
		}
		tr.Seal()
		want.emitted += uint64(late)
		want.dropped += uint64(late)
		want.metrics["spans.emitted"] += float64(late)
		want.metrics["spans.dropped"] += float64(late)
		if got := viewOf(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("trace %d: late spans recorded or miscounted:\nwant %+v\ngot  %+v", id, want, got)
		}
	}
	if wrapped == 0 || unwrapped == 0 || wideTables == 0 {
		t.Fatalf("generator missed a case: %d wrapped, %d unwrapped, %d with over 255 distinct strings",
			wrapped, unwrapped, wideTables)
	}
}

// TestSealKeepsSpansUnpackedPastUint16: a trace whose string table fills
// every uint16 index is packed; one more distinct string and it is sealed
// unpacked. Both read the same after Seal.
func TestSealKeepsSpansUnpackedPastUint16(t *testing.T) {
	// "", the shared name and two strings per span: 65536 entries.
	const n = 1<<15 - 1
	for _, extra := range []bool{false, true} {
		tr := New("wide", n+1)
		for i := 0; i < n; i++ {
			tr.CycleInstant(WallTrack, NameCheckpoint, uint64(i), Str(fmt.Sprint("k", i), fmt.Sprint("v", i)), None)
		}
		if extra {
			tr.CycleInstant(WallTrack, NameCheckpoint, n, Num("one.more", 1), None)
		}
		before := viewOf(tr)
		before.cap, before.metrics["spans.ring.capacity"] = before.len, float64(before.len)
		tr.Seal()
		if packed := tr.buf == nil; packed == extra {
			t.Fatalf("extra string %v: packed = %v", extra, packed)
		}
		if after := viewOf(tr); !reflect.DeepEqual(after, before) {
			t.Fatalf("extra string %v: Seal changed the trace", extra)
		}
	}
}

// TestPackedSpanIsSmallAndPointerFree guards the sealed record's layout:
// at most 48 bytes, and nothing the garbage collector must scan.
func TestPackedSpanIsSmallAndPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(packedSpan{}); size > 48 {
		t.Fatalf("packedSpan is %d bytes, want <= 48", size)
	}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		default:
			t.Errorf("%s is a %s, which holds a pointer", path, ty.Kind())
		}
	}
	walk("packedSpan", reflect.TypeOf(packedSpan{}))
}

// TestSealDuringEmission: emitters keep pushing while another goroutine
// seals the trace and readers read its spans and scrape its collector.
// Every span is counted, and the sealed trace holds exactly the spans it
// held at Seal, each emitter's in emission order.
func TestSealDuringEmission(t *testing.T) {
	const emitters, perEmitter = 4, 2000
	tr := New("t", 256)
	tracks := make([]int32, emitters)
	for i := range tracks {
		tracks[i] = tr.NewTrack(fmt.Sprint("g", i))
	}
	reg := obs.NewRegistry()
	reg.Register(tr.Collector())

	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(track int32) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				tr.CycleInstant(track, NameCheckpoint, uint64(i), Str("tenant", fmt.Sprint("t", track)), Num("i", uint64(i)))
			}
		}(tracks[g])
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if ss := tr.Spans(); len(ss) > tr.Cap() {
				t.Errorf("read %d spans from a trace of capacity %d", len(ss), tr.Cap())
			}
			reg.Snapshot()
			runtime.Gosched()
		}
	}()
	for tr.Emitted() < emitters*perEmitter/4 {
		runtime.Gosched()
	}
	tr.Seal()
	held := tr.Spans()
	wg.Wait()
	close(stop)
	readers.Wait()

	if got := tr.Emitted(); got != emitters*perEmitter {
		t.Fatalf("Emitted = %d, want %d", got, emitters*perEmitter)
	}
	if got, want := tr.Dropped(), uint64(emitters*perEmitter-len(held)); got != want {
		t.Fatalf("Dropped = %d, want %d", got, want)
	}
	after := tr.Spans()
	if !reflect.DeepEqual(after, held) || tr.Len() != len(held) || tr.Cap() != len(held) {
		t.Fatalf("sealed trace changed after Seal: held %d, now %d (len %d, cap %d)",
			len(held), len(after), tr.Len(), tr.Cap())
	}
	last := map[int32]uint64{}
	for _, s := range after {
		if prev, ok := last[s.Track]; ok && s.Start <= prev {
			t.Fatalf("track %d out of emission order: %d after %d", s.Track, s.Start, prev)
		}
		last[s.Track] = s.Start
		if s.Args[1].Num != s.Start || s.Args[0].Str != fmt.Sprint("t", s.Track) {
			t.Fatalf("span args corrupted by Seal: %+v", s)
		}
	}
}
