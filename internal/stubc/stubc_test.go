package stubc

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const goodSrc = `
# the TSP interface
package tspgen

rpc GetJob() (route bytes, ok bool)
rpc Best(tour int64) (best int64)
async rpc Extend(pos uint64, ways uint64)
rpc Swap(a f64s, b string) (c i32s, d float32)
rpc Ping()
`

func TestParseGood(t *testing.T) {
	f, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	if f.Package != "tspgen" {
		t.Fatalf("package = %q", f.Package)
	}
	if len(f.Procs) != 5 {
		t.Fatalf("procs = %d", len(f.Procs))
	}
	g := f.Procs[0]
	if g.Name != "GetJob" || g.Async || len(g.Ins) != 0 || len(g.Outs) != 2 {
		t.Fatalf("GetJob parsed wrong: %+v", g)
	}
	if g.Outs[0] != (Param{"route", TBytes}) || g.Outs[1] != (Param{"ok", TBool}) {
		t.Fatalf("GetJob outs: %+v", g.Outs)
	}
	e := f.Procs[2]
	if !e.Async || len(e.Ins) != 2 || len(e.Outs) != 0 {
		t.Fatalf("Extend parsed wrong: %+v", e)
	}
	if p := f.Procs[4]; p.Name != "Ping" || len(p.Ins) != 0 || len(p.Outs) != 0 {
		t.Fatalf("Ping parsed wrong: %+v", p)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"rpc Foo()", "before package"},
		{"package p\nrpc foo()", "exported"},
		{"package p\nrpc Foo(x junk)", "unknown type"},
		{"package p\nasync rpc Foo() (x bool)", "cannot have results"},
		{"package p\nrpc Foo(x bool, x int32)", "duplicate parameter"},
		{"package p\nrpc Foo(x bool)\nrpc Foo()", "already declared"},
		{"package p\npackage q\nrpc Foo()", "duplicate package"},
		{"package p\nrpc Foo", "missing ("},
		{"package p\nrpc Foo(x bool", "missing )"},
		{"package p\nrpc Foo() junk", "malformed result"},
		{"package p\nwhatever", "cannot parse"},
		{"package p", "no rpc declarations"},
		{"", "missing package"},
		{"package p\nrpc Foo(a)", "must be `name type`"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", tc.src, err, tc.want)
		}
	}
}

func TestParseErrorHasLine(t *testing.T) {
	_, err := Parse("package p\n\nrpc Bad(x junk)")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 3 {
		t.Fatalf("line = %d, want 3", pe.Line)
	}
}

func TestGenerateCompilesShape(t *testing.T) {
	f, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	out := string(code)
	for _, want := range []string{
		"package tspgen",
		"DO NOT EDIT",
		"type GetJobImpl func(e *oam.Env, caller int) ([]byte, bool)",
		"func DefineGetJob(rt *rpc.Runtime, impl GetJobImpl) GetJobProc",
		"func (h GetJobProc) Call(c threads.Ctx, server int) ([]byte, bool)",
		"type ExtendImpl func(e *oam.Env, caller int, pos uint64, ways uint64)",
		"func (h ExtendProc) CallAsync(c threads.Ctx, server int, pos uint64, ways uint64)",
		"rt.DefineAsync(\"Extend\"",
		"rt.Define(\"GetJob\"",
		"func (h PingProc) Stats() rpc.ProcStats",
		"d.Done()",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n---\n%s", want, out)
		}
	}
}

func TestGenerateMarshalingSymmetric(t *testing.T) {
	f, err := Parse("package p\nrpc M(a int64, b bytes, c f64s) (d uint32, e string)")
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	out := string(code)
	// Client marshals ins in order; server unmarshals in the same order.
	ia := strings.Index(out, "enc.I64(a)")
	ib := strings.Index(out, "enc.Buf(b)")
	ic := strings.Index(out, "enc.F64s(c)")
	if ia < 0 || ib < 0 || ic < 0 || !(ia < ib && ib < ic) {
		t.Fatalf("client marshal order wrong\n%s", out)
	}
	sa := strings.Index(out, "a_a := d.I64()")
	sb := strings.Index(out, "a_b := d.Buf()")
	sc := strings.Index(out, "a_c := d.F64s()")
	if sa < 0 || sb < 0 || sc < 0 || !(sa < sb && sb < sc) {
		t.Fatalf("server unmarshal order wrong\n%s", out)
	}
}

const structSrc = `
package p
struct Point { x float64, y float64 }
struct Blob { id uint64, data bytes }
rpc Move(p Point, d Point) (q Point)
rpc Store(b Blob)
`

func TestParseStructs(t *testing.T) {
	f, err := Parse(structSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Structs) != 2 {
		t.Fatalf("structs = %d", len(f.Structs))
	}
	pt := f.structByName("Point")
	if pt == nil || len(pt.Fields) != 2 || pt.Fields[0] != (Param{"x", TF64}) {
		t.Fatalf("Point parsed wrong: %+v", pt)
	}
	if f.Procs[0].Ins[0].Type != "Point" || f.Procs[0].Outs[0].Type != "Point" {
		t.Fatalf("proc param types wrong: %+v", f.Procs[0])
	}
}

func TestParseStructErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{"package p\nstruct point { x bool }\nrpc F(a point)", "exported"},
		{"package p\nstruct P { }\nrpc F(a P)", "no fields"},
		{"package p\nstruct P { x bool, x bool }\nrpc F(a P)", "duplicate field"},
		{"package p\nstruct Q { y bool }\nstruct P { x Q }\nrpc F(a P)", "nested struct"},
		{"package p\nstruct bytes { x bool }\nrpc F(a bool)", "exported"},
		{"package p\nstruct Bytes { x bool }\nstruct Bytes { y bool }\nrpc F(a bool)", "already declared"},
		{"package p\nrpc F(a Unknown)", "unknown type"},
		{"struct P { x bool }", "before package"},
		{"package p\nstruct P x bool", "must be `struct Name"},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): err %v, want containing %q", tc.src, err, tc.want)
		}
	}
}

func TestGenerateStructs(t *testing.T) {
	f, err := Parse(structSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	out := string(code)
	for _, want := range []string{
		"type Point struct {",
		"X float64",
		"func encPoint(e *rpc.Enc, v Point)",
		"func decPoint(d *rpc.Dec) Point",
		"type MoveImpl func(e *oam.Env, caller int, p Point, d Point) Point",
		"encPoint(enc, p)",
		"a_p := decPoint(d)",
		"encBlob(e *rpc.Enc, v Blob)",
		"e.Buf(v.Data)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n---\n%s", want, out)
		}
	}
}

func TestEncSizeHints(t *testing.T) {
	f, err := Parse("package p\nrpc M(a int64, b bytes)")
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "rpc.NewEnc(12 + len(b))") {
		t.Fatalf("size hint missing:\n%s", code)
	}
}

const compatSrc = `
package p
rpc Get(key uint32) (v int32)
rpc Put(key uint32, v int32)
rpc Ping()
compatible Get Get
compatible Get Put when disjoint(key)
`

func TestParseCompat(t *testing.T) {
	f, err := Parse(compatSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Compat) != 2 {
		t.Fatalf("compat clauses = %d", len(f.Compat))
	}
	if c := f.Compat[0]; c.A != "Get" || c.B != "Get" || c.Disjoint || c.KeyParam != "" {
		t.Fatalf("clause 0 parsed wrong: %+v", c)
	}
	if c := f.Compat[1]; c.A != "Get" || c.B != "Put" || !c.Disjoint || c.KeyParam != "key" {
		t.Fatalf("clause 1 parsed wrong: %+v", c)
	}
}

func TestParseCompatErrors(t *testing.T) {
	const hdr = "package p\nrpc Get(key uint32) (v int32)\nrpc Put(key uint32, v int32)\nasync rpc Fire(tag uint64)\nrpc Name(s string)\nrpc Two(k uint32, j uint32)\nrpc Also(k uint32, j uint32)\n"
	cases := []struct{ src, want string }{
		{hdr + "compatible Get", "must be `compatible A B [when disjoint(param)]`"},
		{hdr + "compatible Get Put extra", "must be `compatible A B [when disjoint(param)]`"},
		{hdr + "compatible Get Missing", "unknown procedure"},
		{"package p\ncompatible Get Get\nrpc Get(key uint32)", "clauses must follow the rpc declarations"},
		{hdr + "compatible Fire Fire", "async procedure"},
		{hdr + "compatible Get Put if disjoint(key)", "expected `when`"},
		{hdr + "compatible Get Put when overlap(key)", "only disjoint(param) is supported"},
		{hdr + "compatible Get Put when disjoint(1key)", "bad disjoint parameter name"},
		{hdr + "compatible Get Put when disjoint(v)", "not an input of Get"},
		{hdr + "compatible Name Name when disjoint(s)", "must be int32, int64, uint32, or uint64"},
		{hdr + "compatible Get Put\ncompatible Get Put when disjoint(key)", "contradicts the clause on line"},
		{hdr + "compatible Get Get\ncompatible Get Get", "duplicate compatible clause"},
		{hdr + "compatible Two Two when disjoint(k)\ncompatible Two Also when disjoint(j)", "already keyed by \"k\""},
	}
	for _, tc := range cases {
		_, err := Parse(tc.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error containing %q", tc.src, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q): error %q does not contain %q", tc.src, err, tc.want)
		}
	}
}

func TestParseCompatErrorHasLine(t *testing.T) {
	_, err := Parse("package p\nrpc Get(key uint32)\n\ncompatible Get Nope")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if pe.Line != 4 {
		t.Fatalf("line = %d, want 4", pe.Line)
	}
}

func TestGenerateCompat(t *testing.T) {
	f, err := Parse(compatSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, err := Generate(f)
	if err != nil {
		t.Fatal(err)
	}
	out := string(code)
	for _, want := range []string{
		"func CompatSpec() rpc.CompatSpec",
		"t := oam.NewCompatTable(3)",
		"t.Allow(0, 0)",
		"t.AllowDisjoint(0, 1)",
		"{Name: \"Get\", Key: keyGet},",
		"{Name: \"Put\", Key: keyPut},",
		"{Name: \"Ping\"},",
		"func keyGet(arg []byte) uint64",
		"return uint64(d.U32())",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("generated code missing %q\n---\n%s", want, out)
		}
	}
	// Put's key sits behind no earlier params; Get's neither — but an
	// unannotated service must not grow a CompatSpec at all.
	plain, err := Parse(goodSrc)
	if err != nil {
		t.Fatal(err)
	}
	code, err = Generate(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(code), "CompatSpec") {
		t.Error("unannotated service generated a CompatSpec")
	}
}

// TestCheckedInStubsFresh regenerates every checked-in stub file from its
// .rpc specification and requires a byte-identical match, so an edit to
// a spec or to the generator cannot land without regenerating the stubs
// (go run ./cmd/stubgen -in <spec> -out <stubs.go>).
func TestCheckedInStubsFresh(t *testing.T) {
	for _, c := range []struct{ spec, stubs string }{
		{"../apps/kv/kv.rpc", "../apps/kv/gen/stubs.go"},
		{"../apps/sor/sor.rpc", "../apps/sor/gen/stubs.go"},
		{"../apps/triangle/triangle.rpc", "../apps/triangle/gen/stubs.go"},
		{"../apps/tsp/tsp.rpc", "../apps/tsp/gen/stubs.go"},
		{"../apps/water/water.rpc", "../apps/water/gen/stubs.go"},
		{"gentest/alltypes.rpc", "gentest/stubs.go"},
	} {
		t.Run(c.spec, func(t *testing.T) {
			src, err := os.ReadFile(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(c.stubs)
			if err != nil {
				t.Fatal(err)
			}
			f, err := Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			got, err := Generate(f)
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s does not match stubgen's output for %s; regenerate it", c.stubs, c.spec)
			}
		})
	}
}
