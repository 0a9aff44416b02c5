package trace

// Binary trace files: a compact record/replay format so workloads can be
// generated once, archived, and replayed byte-identically — the moral
// equivalent of the trace snapshots a full-system simulator checkpoints.
//
// Layout: a fixed header ("FTRC", version, profile-name length, profile
// name) followed by one record per instruction in the shared record
// encoding (codec.go), about 4 bytes per instruction for a SPEC-like
// stream. Version 2 records carry the hot-phase bit, so a replayed file
// drives the core timing model exactly as the generator did; version 1
// files (no hot bit, about 9 bytes per instruction) are rejected.

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"fade/internal/isa"
)

// Magic identifies trace files; Version gates format changes.
const (
	Magic   = "FTRC"
	Version = 2
)

// Writer serializes an instruction stream.
type Writer struct {
	w     *bufio.Writer
	buf   []byte
	count uint64
	enc   codec
}

// NewWriter writes a trace header for the named profile and returns a
// Writer for the records.
func NewWriter(w io.Writer, profile string) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, err
	}
	hdr := make([]byte, 2)
	hdr[0] = Version
	hdr[1] = byte(len(profile))
	if len(profile) > 255 {
		return nil, fmt.Errorf("trace: profile name too long")
	}
	if _, err := bw.Write(hdr); err != nil {
		return nil, err
	}
	if _, err := bw.WriteString(profile); err != nil {
		return nil, err
	}
	return &Writer{w: bw, buf: make([]byte, 0, maxRecordLen)}, nil
}

// Write appends one instruction record; hot is the source's hot-phase bit
// after producing in (see Generator.Hot).
func (t *Writer) Write(in isa.Instr, hot bool) error {
	if in.Op >= isa.NumOps {
		return fmt.Errorf("trace: cannot encode %v", in.Op)
	}
	if _, err := t.w.Write(t.enc.append(t.buf[:0], &in, hot)); err != nil {
		return err
	}
	t.count++
	return nil
}

// Count returns the number of records written.
func (t *Writer) Count() uint64 { return t.count }

// Flush flushes buffered records to the underlying writer.
func (t *Writer) Flush() error { return t.w.Flush() }

// Record generates limit instructions from src and writes them all. When
// src reports a hot-phase bit (as a Generator does) the records carry it.
func Record(w io.Writer, profile string, src Source, limit uint64) (uint64, error) {
	tw, err := NewWriter(w, profile)
	if err != nil {
		return 0, err
	}
	h, _ := src.(interface{ Hot() bool })
	var n uint64
	for n = 0; limit == 0 || n < limit; n++ {
		in, ok := src.Next()
		if !ok {
			break
		}
		if err := tw.Write(in, h != nil && h.Hot()); err != nil {
			return n, err
		}
	}
	return n, tw.Flush()
}

// Reader replays a trace file as a Source.
type Reader struct {
	r       *bufio.Reader
	profile string
	dec     codec
	hot     bool
	err     error
}

// NewReader parses the header and returns a replay Source.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, errors.New("trace: not a trace file")
	}
	hdr := make([]byte, 2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if hdr[0] != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[0])
	}
	name := make([]byte, hdr[1])
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading profile name: %w", err)
	}
	return &Reader{r: br, profile: string(name)}, nil
}

// Profile returns the profile name recorded in the header.
func (t *Reader) Profile() string { return t.profile }

// Err returns the first decode error encountered (io.EOF excluded).
func (t *Reader) Err() error { return t.err }

// Hot reports the hot-phase bit recorded with the last record returned.
func (t *Reader) Hot() bool { return t.hot }

// Next implements Source. It decodes straight out of the bufio buffer, so
// replay allocates nothing per record.
func (t *Reader) Next() (isa.Instr, bool) {
	if t.err != nil {
		return isa.Instr{}, false
	}
	// Peek returns what is buffered up to maxRecordLen; a short read is
	// only an error if the record it holds is incomplete.
	b, err := t.r.Peek(maxRecordLen)
	if len(b) == 0 {
		if err != io.EOF {
			t.err = err
		}
		return isa.Instr{}, false
	}
	var in isa.Instr
	hot, n, derr := t.dec.decode(b, &in)
	if derr != nil {
		if derr == errShortRecord && err != nil && err != io.EOF {
			derr = err
		}
		t.err = derr
		return isa.Instr{}, false
	}
	t.r.Discard(n)
	t.hot = hot
	return in, true
}
