package trace

import (
	"bytes"
	"testing"

	"fade/internal/isa"
)

// FuzzReader feeds arbitrary bytes to the trace reader: it must never
// panic, and must either parse records or surface an error.
func FuzzReader(f *testing.F) {
	var seed bytes.Buffer
	prof, _ := Lookup("astar")
	Record(&seed, "astar", New(prof, 1, 50), 0)
	f.Add(seed.Bytes())
	f.Add([]byte("FTRC\x02\x00"))
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 10_000; i++ {
			if _, ok := rd.Next(); !ok {
				break
			}
		}
	})
}

// FuzzCodecRoundTrip encodes pairs of arbitrary instructions (any thread,
// register, size or address, PCs that wrap) and decodes them back: every
// field and the hot bit must survive, through both the implied and the
// spelled-out record shapes.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint32(0x1000), uint32(0x7fff_fff0), uint32(4), uint8(1), uint8(2), uint8(0xFF), uint8(0), true, true)
	f.Add(uint8(1), uint32(0xFFFF_FFFE), uint32(0), uint32(0), uint8(40), uint8(0xFF), uint8(7), uint8(3), false, false)
	f.Add(uint8(7), uint32(4), uint32(0x8000_0000), uint32(96), uint8(0xFF), uint8(0xFF), uint8(0xFF), uint8(0), false, true)
	f.Add(uint8(0), uint32(0x8000_0000), uint32(0xFFFF_FFFF), uint32(0xFFFF_FFFF), uint8(99), uint8(0), uint8(0), uint8(9), true, false)
	f.Fuzz(func(t *testing.T, op uint8, pc, addr, size uint32, s1, s2, d, thread uint8, stack, hot bool) {
		ins := []isa.Instr{
			{PC: pc, Op: isa.Op(op % uint8(isa.NumOps)), Src1: s1, Src2: s2, Dest: d, Addr: addr, Size: size, Thread: thread, Stack: stack},
			{PC: pc + 4, Op: isa.OpLoad, Src1: d, Src2: isa.RegNone, Dest: s1, Addr: addr ^ 0x40, Size: 4, Thread: thread},
			{PC: pc ^ 0x80000000, Op: isa.OpALU, Src1: s2 % isa.NumRegs, Src2: s1 % isa.NumRegs, Dest: isa.RegNone, Thread: thread + 1},
		}
		var enc, dec codec
		var b []byte
		for i, in := range ins {
			n := len(b)
			b = enc.append(b, &in, hot != (i == 1))
			// The store packs chunks by this bound; a longer record would
			// make append move a chunk off its mapping.
			if len(b)-n > maxRecordLen {
				t.Fatalf("record %d is %d bytes, over maxRecordLen %d", i, len(b)-n, maxRecordLen)
			}
		}
		for i, want := range ins {
			var got isa.Instr
			h, n, err := dec.decode(b, &got)
			if err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
			if got != want || h != (hot != (i == 1)) {
				t.Fatalf("record %d: got %+v (hot %v), want %+v (hot %v)", i, got, h, want, hot != (i == 1))
			}
			b = b[n:]
		}
		if len(b) != 0 {
			t.Fatalf("%d bytes left over", len(b))
		}
	})
}
