package rpc

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWireRoundTripBasic(t *testing.T) {
	e := NewEnc(64)
	e.U8(250)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I32(-12345)
	e.I64(-1 << 50)
	e.F32(3.25)
	e.F64(-2.5e300)
	e.Buf([]byte("hello"))
	e.String("world")
	e.F64s([]float64{1, 2.5, -3})
	e.I32s([]int32{-1, 0, 7})
	e.U64s([]uint64{9, 8})

	d := NewDec(e.Bytes())
	if d.U8() != 250 || !d.Bool() || d.Bool() {
		t.Fatal("u8/bool mismatch")
	}
	if d.U32() != 0xdeadbeef || d.U64() != 1<<60 {
		t.Fatal("u32/u64 mismatch")
	}
	if d.I32() != -12345 || d.I64() != -1<<50 {
		t.Fatal("i32/i64 mismatch")
	}
	if d.F32() != 3.25 || d.F64() != -2.5e300 {
		t.Fatal("float mismatch")
	}
	if !bytes.Equal(d.Buf(), []byte("hello")) || d.String() != "world" {
		t.Fatal("buf/string mismatch")
	}
	f := d.F64s()
	if len(f) != 3 || f[0] != 1 || f[1] != 2.5 || f[2] != -3 {
		t.Fatal("f64s mismatch")
	}
	i := d.I32s()
	if len(i) != 3 || i[0] != -1 || i[2] != 7 {
		t.Fatal("i32s mismatch")
	}
	u := d.U64s()
	if len(u) != 2 || u[0] != 9 || u[1] != 8 {
		t.Fatal("u64s mismatch")
	}
	d.Done()
}

// TestWireProperty: any (u64, f64, bytes, i32) tuple round-trips.
func TestWireProperty(t *testing.T) {
	f := func(a uint64, b float64, c []byte, d int32, s string) bool {
		if math.IsNaN(b) {
			b = 0 // NaN != NaN; normalize
		}
		e := NewEnc(32)
		e.U64(a)
		e.F64(b)
		e.Buf(c)
		e.I32(d)
		e.String(s)
		dec := NewDec(e.Bytes())
		ok := dec.U64() == a && dec.F64() == b &&
			bytes.Equal(dec.Buf(), c) && dec.I32() == d && dec.String() == s
		dec.Done()
		return ok && dec.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeShortPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short read")
		}
	}()
	NewDec([]byte{1, 2}).U64()
}

func TestDoneTrailingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on trailing bytes")
		}
	}()
	e := NewEnc(8)
	e.U64(7)
	d := NewDec(e.Bytes())
	d.U32()
	d.Done()
}

func TestEmptyBuffers(t *testing.T) {
	e := NewEnc(8)
	e.Buf(nil)
	e.F64s(nil)
	e.String("")
	d := NewDec(e.Bytes())
	if len(d.Buf()) != 0 || len(d.F64s()) != 0 || d.String() != "" {
		t.Fatal("empty buffers mangled")
	}
	d.Done()
}

// TestDecodeHugeLengthPanics: a length prefix larger than the rest of the
// record is a short read, reported by the decoder's own panic before any
// buffer is sized from it (an unchecked 0xffffffff prefix would ask make
// for tens of gigabytes).
func TestDecodeHugeLengthPanics(t *testing.T) {
	prefix := []byte{0xff, 0xff, 0xff, 0xff}
	for name, read := range map[string]func(*Dec){
		"Buf":    func(d *Dec) { d.Buf() },
		"String": func(d *Dec) { _ = d.String() },
		"F64s":   func(d *Dec) { d.F64s() },
		"I32s":   func(d *Dec) { d.I32s() },
		"U64s":   func(d *Dec) { d.U64s() },
	} {
		msg := decodePanic(func() { read(NewDec(prefix)) })
		if !strings.HasPrefix(msg, "rpc: decode past end of record") {
			t.Errorf("%s: panic %q, want a decode-past-end panic", name, msg)
		}
	}
}

// decodePanic runs f and returns its panic message, or "" if it returned.
// A panic that is not a string is re-raised.
func decodePanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			s, ok := r.(string)
			if !ok {
				panic(r)
			}
			msg = s
		}
	}()
	f()
	return ""
}

// decodeOps is the op alphabet of FuzzDec: op i reads one value of the
// i-th wire type from d and appends the same value to e.
var decodeOps = []func(d *Dec, e *Enc){
	func(d *Dec, e *Enc) { e.U8(d.U8()) },
	func(d *Dec, e *Enc) { e.U32(d.U32()) },
	func(d *Dec, e *Enc) { e.U64(d.U64()) },
	func(d *Dec, e *Enc) { e.I32(d.I32()) },
	func(d *Dec, e *Enc) { e.I64(d.I64()) },
	func(d *Dec, e *Enc) { e.F32(d.F32()) },
	func(d *Dec, e *Enc) { e.F64(d.F64()) },
	func(d *Dec, e *Enc) { e.Buf(d.Buf()) },
	func(d *Dec, e *Enc) { e.String(d.String()) },
	func(d *Dec, e *Enc) { e.F64s(d.F64s()) },
	func(d *Dec, e *Enc) { e.I32s(d.I32s()) },
	func(d *Dec, e *Enc) { e.U64s(d.U64s()) },
}

// FuzzDec decodes an arbitrary record with an arbitrary sequence of
// reads. Malformed input may only ever panic with an "rpc:" message;
// input that decodes must re-encode to exactly the bytes consumed, and
// decode again to the same record (the Enc→Dec round trip).
func FuzzDec(f *testing.F) {
	e := NewEnc(64)
	e.U32(7)
	e.Buf([]byte("hello"))
	e.F64s([]float64{1, -2.5})
	e.I32s([]int32{-1, 3})
	e.U64s([]uint64{9})
	f.Add([]byte{1, 7, 9, 10, 11}, e.Bytes())
	f.Add([]byte{9}, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{10}, []byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{11, 7}, []byte{1, 0, 0, 0})
	f.Add([]byte{0, 2, 6}, []byte{})
	f.Fuzz(func(t *testing.T, ops, rec []byte) {
		out := NewEnc(len(rec))
		d := NewDec(rec)
		msg := decodePanic(func() {
			for _, op := range ops {
				decodeOps[int(op)%len(decodeOps)](d, out)
			}
		})
		if msg != "" {
			if !strings.HasPrefix(msg, "rpc: ") {
				t.Fatalf("decode panicked with %q, want an rpc: message", msg)
			}
			return
		}
		consumed := rec[:len(rec)-d.Remaining()]
		if !bytes.Equal(out.Bytes(), consumed) {
			t.Fatalf("re-encoded %x, want the %d bytes consumed %x", out.Bytes(), len(consumed), consumed)
		}
		again := NewEnc(len(consumed))
		d2 := NewDec(out.Bytes())
		for _, op := range ops {
			decodeOps[int(op)%len(decodeOps)](d2, again)
		}
		d2.Done()
		if !bytes.Equal(again.Bytes(), consumed) {
			t.Fatalf("second round trip %x, want %x", again.Bytes(), consumed)
		}
		if msg := decodePanic(d.Done); (msg == "") != (d.Remaining() == 0) {
			t.Fatalf("Done with %d bytes left: panic %q", d.Remaining(), msg)
		}
	})
}
