package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"fade/internal/isa"
)

// The record codec is shared by trace files (Writer/Reader) and the
// in-memory trace store (Open): one encoding, exact for every field of an
// isa.Instr plus the generator's hot-phase bit.
//
// Record layout, one per instruction:
//
//	head    1 byte: Op in bits 0-3, then hStack, hHot, hSeqPC, hExt
//	ext     1 byte, with hExt: the record's shape (xThread, xAddr, xSize, xRegs)
//	regs    2 bytes packing Src1, Src2, Dest in base 33 (RegNone is 32),
//	        or 3 raw bytes with xRegs
//	pc      without hSeqPC, zig-zag varint: PC minus the previous record's
//	        (hSeqPC means PC is the previous record's plus 4)
//	thread  1 byte, with xThread: Thread (otherwise the previous record's)
//	addr    with xAddr, uvarint: the zig-zag delta from the previous Addr in
//	        the same 256 MB region, shifted left 4, or'd with the region
//	size    with xSize, uvarint: Size
//
// Without hExt the op implies the shape: loads and stores carry an address
// and Size 4, calls, returns and high-level events an address and a size,
// everything else neither; the thread is unchanged and the registers pack.
// An instruction that fits none of that (a thread switch, an unusual size)
// spells its shape out in the ext byte. A SPEC-like stream costs about 4
// bytes per instruction.

// Head-byte bits above the 4-bit op.
const (
	opMask = 0x0F
	hStack = 1 << 4
	hHot   = 1 << 5
	hSeqPC = 1 << 6
	hExt   = 1 << 7
)

// Ext-byte bits.
const (
	xThread = 1 << iota
	xAddr
	xSize
	xRegs
	xAll = xThread | xAddr | xSize | xRegs
)

// regNone is RegNone's digit in the packed register encoding.
const regNone = isa.NumRegs

// maxRecordLen bounds one encoded record: head, ext, raw regs, a 5-byte PC
// varint, the thread byte, a 6-byte address varint and a 5-byte size.
const maxRecordLen = 1 + 1 + 3 + 5 + 1 + 6 + 5

var errShortRecord = errors.New("trace: truncated record")

// implied is the shape each op implies without an ext byte.
var implied = func() (s [opMask + 1]byte) {
	for op := isa.Op(0); op < isa.NumOps; op++ {
		switch {
		case op.IsMem():
			s[op] = xAddr
		case op.IsStackUpdate(), op.IsHighLevel():
			s[op] = xAddr | xSize
		}
	}
	return s
}()

// codec carries the delta state of one record stream. The encoder and the
// decoder of a stream each keep their own and must see the same records in
// the same order.
type codec struct {
	pc     uint32
	thread uint8
	addr   [16]uint32 // last address per region (Addr >> 28)
}

// append encodes *in (and the hot bit) onto b. Callers reject ops outside
// the ISA first: they do not fit the 4-bit op field.
func (c *codec) append(b []byte, in *isa.Instr, hot bool) []byte {
	if in.Op >= isa.NumOps {
		panic(fmt.Sprintf("trace: cannot encode %v", in.Op))
	}
	head := byte(in.Op)
	if in.Stack {
		head |= hStack
	}
	if hot {
		head |= hHot
	}
	if in.PC == c.pc+4 {
		head |= hSeqPC
	}
	s1, s2, d := regDigits[in.Src1], regDigits[in.Src2], regDigits[in.Dest]
	x := implied[in.Op]
	size := uint32(0)
	if in.Op.IsMem() {
		size = 4
	}
	if in.Thread != c.thread || (s1|s2|d)&noDigit != 0 || (x&xAddr == 0 && in.Addr != 0) || (x&xSize == 0 && in.Size != size) {
		head |= hExt
		x = 0
		if in.Thread != c.thread {
			x |= xThread
		}
		if in.Addr != 0 {
			x |= xAddr
		}
		if in.Size != 0 {
			x |= xSize
		}
		if (s1|s2|d)&noDigit != 0 {
			x |= xRegs
		}
	}
	// Fields are written in place into room for the longest record.
	b = slices.Grow(b, maxRecordLen)
	n := len(b)
	b = b[:n+maxRecordLen]
	b[n] = head
	k := n + 1
	if head&hExt != 0 {
		b[k] = x
		k++
	}
	if x&xRegs != 0 {
		b[k], b[k+1], b[k+2] = in.Src1, in.Src2, in.Dest
		k += 3
	} else {
		binary.LittleEndian.PutUint16(b[k:], (s1*(regNone+1)+s2)*(regNone+1)+d)
		k += 2
	}
	if head&hSeqPC == 0 {
		k += binary.PutVarint(b[k:], int64(in.PC)-int64(c.pc))
	}
	c.pc = in.PC
	if x&xThread != 0 {
		b[k] = in.Thread
		k++
		c.thread = in.Thread
	}
	if x&xAddr != 0 {
		r := in.Addr >> 28
		d := int64(in.Addr) - int64(c.addr[r])
		k += binary.PutUvarint(b[k:], uint64(d<<1^d>>63)<<4|uint64(r))
		c.addr[r] = in.Addr
	}
	if x&xSize != 0 {
		k += binary.PutUvarint(b[k:], uint64(in.Size))
	}
	return b[:k]
}

// regDigits maps a register to its digit in the packed encoding (RegNone
// is regNone), or to noDigit when it does not pack.
var regDigits = func() (t [256]uint16) {
	for r := range t {
		switch {
		case r == int(isa.RegNone):
			t[r] = regNone
		case r < isa.NumRegs:
			t[r] = uint16(r)
		default:
			t[r] = noDigit
		}
	}
	return t
}()

const noDigit = 1 << 15

// unpackReg maps one packed register digit back to its register.
func unpackReg(d uint16) isa.Reg {
	if d == regNone {
		return isa.RegNone
	}
	return isa.Reg(d)
}

// decode reads one record from the front of b into *in and returns its hot
// bit and the number of bytes it used. A record cut short by the end of b
// yields errShortRecord.
func (c *codec) decode(b []byte, in *isa.Instr) (hot bool, n int, err error) {
	if len(b) < 3 {
		return false, 0, errShortRecord
	}
	head := b[0]
	op := isa.Op(head & opMask)
	if op >= isa.NumOps {
		return false, 0, fmt.Errorf("trace: bad op %d", op)
	}
	x, n := implied[op], 1
	if head&hExt != 0 {
		if x = b[1]; x&^xAll != 0 {
			return false, 0, fmt.Errorf("trace: bad record shape %#x", x)
		}
		n = 2
	}
	*in = isa.Instr{Op: op, Stack: head&hStack != 0}
	if x&xRegs != 0 {
		if len(b) < n+3 {
			return false, 0, errShortRecord
		}
		in.Src1, in.Src2, in.Dest = b[n], b[n+1], b[n+2]
		n += 3
	} else {
		if len(b) < n+2 {
			return false, 0, errShortRecord
		}
		v := binary.LittleEndian.Uint16(b[n:])
		if v >= (regNone+1)*(regNone+1)*(regNone+1) {
			return false, 0, fmt.Errorf("trace: bad register code %d", v)
		}
		in.Dest = unpackReg(v % (regNone + 1))
		v /= regNone + 1
		in.Src2 = unpackReg(v % (regNone + 1))
		in.Src1 = unpackReg(v / (regNone + 1))
		n += 2
	}
	in.PC = c.pc + 4
	if head&hSeqPC == 0 {
		u, k := uvarint(b[n:])
		if k <= 0 {
			return false, 0, varintErr(k, "PC")
		}
		n += k
		in.PC = uint32(int64(c.pc) + unzigzag(u))
	}
	c.pc = in.PC
	if x&xThread != 0 {
		if n >= len(b) {
			return false, 0, errShortRecord
		}
		c.thread = b[n]
		n++
	}
	in.Thread = c.thread
	if x&xAddr != 0 {
		u, k := uvarint(b[n:])
		if k <= 0 {
			return false, 0, varintErr(k, "addr")
		}
		n += k
		r := u & 15
		c.addr[r] = uint32(int64(c.addr[r]) + unzigzag(u>>4))
		in.Addr = c.addr[r]
	}
	if x&xSize != 0 {
		u, k := uvarint(b[n:])
		if k <= 0 {
			return false, 0, varintErr(k, "size")
		}
		n += k
		in.Size = uint32(u)
	} else if head&hExt == 0 && op.IsMem() {
		in.Size = 4
	}
	return head&hHot != 0, n, nil
}

// uvarint is binary.Uvarint with the one-byte case inlined into the
// decoder.
func uvarint(b []byte) (uint64, int) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	return uvarintLong(b)
}

// uvarintLong stays out of line so that uvarint inlines.
//
//go:noinline
func uvarintLong(b []byte) (uint64, int) { return binary.Uvarint(b) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// varintErr maps a failed uvarint length to an error: 0 means the input
// ended inside the varint, negative means it overflowed 64 bits.
func varintErr(k int, field string) error {
	if k == 0 {
		return errShortRecord
	}
	return fmt.Errorf("trace: bad %s varint", field)
}
