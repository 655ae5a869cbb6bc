package graph_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"subgraphquery/internal/gen"
	. "subgraphquery/internal/graph"
)

// readGraphsRef is the reader as it was before it split lines in place: a
// fresh string per line and per field. The reader is tested equal to it.
func readGraphsRef(r io.Reader, limit int) ([]*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	var graphs []*Graph
	var b *Builder
	var wantV, wantE int
	lineNo := 0

	flush := func() error {
		if b == nil {
			return nil
		}
		if b.NumVertices() != wantV {
			return fmt.Errorf("graph: declared %d vertices, got %d", wantV, b.NumVertices())
		}
		if b.NumEdges() != wantE {
			return fmt.Errorf("graph: declared %d edges, got %d", wantE, b.NumEdges())
		}
		g, err := b.Build()
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
		b = nil
		return nil
	}

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "t":
			if err := flush(); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			if limit >= 0 && len(graphs) == limit {
				return graphs, nil
			}
			if len(fields) < 4 {
				return nil, fmt.Errorf("line %d: malformed t record %q", lineNo, line)
			}
			var err1, err2 error
			wantV, err1 = strconv.Atoi(fields[2])
			wantE, err2 = strconv.Atoi(fields[3])
			if err1 != nil || err2 != nil || wantV < 0 || wantE < 0 {
				return nil, fmt.Errorf("line %d: malformed t record %q", lineNo, line)
			}
			const maxHint = 1 << 20
			b = NewBuilder(min(wantV, maxHint), min(wantE, maxHint))
		case "v":
			if b == nil {
				return nil, fmt.Errorf("line %d: v record before t record", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed v record %q", lineNo, line)
			}
			id, err1 := strconv.Atoi(fields[1])
			lab, err2 := strconv.ParseUint(fields[2], 10, 32)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: malformed v record %q", lineNo, line)
			}
			if id != b.NumVertices() {
				return nil, fmt.Errorf("line %d: vertex ids must be consecutive, got %d want %d", lineNo, id, b.NumVertices())
			}
			b.AddVertex(Label(lab))
		case "e":
			if b == nil {
				return nil, fmt.Errorf("line %d: e record before t record", lineNo)
			}
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: malformed e record %q", lineNo, line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: malformed e record %q", lineNo, line)
			}
			b.AddEdge(VertexID(u), VertexID(v))
		default:
			return nil, fmt.Errorf("line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return graphs, nil
}

// fuzzCorpus returns the checked-in inputs of FuzzReadDatabase.
func fuzzCorpus(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob("testdata/fuzz/FuzzReadDatabase/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fuzz corpus: %v", err)
	}
	out := map[string]string{}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(raw), "\n")
		lit = strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lit), "string("), ")")
		in, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[filepath.Base(f)] = in
	}
	return out
}

// TestReadDatabaseMatchesReference: the in-place reader accepts what the
// reference reader accepts, parses it to the same graphs, and reports the
// same error otherwise — over the fuzz corpus, white space of every kind
// strings.Fields knows, and generated databases; ReadGraph likewise.
func TestReadDatabaseMatchesReference(t *testing.T) {
	inputs := fuzzCorpus(t)
	for name, in := range map[string]string{
		"tabs":               "t\t0\t2\t1\nv\t0\t1\t1\nv 1\t2 1\ne\t0\t1\n",
		"crlf-and-blanks":    "\r\n  t 0 2 1  \r\n\t\r\nv 0 1 1\r\n   v 1 2 1\r\ne 0 1 \r\n \r\n",
		"unicode-spaces":     "t\u00a00\u20032\u30001\nv\v0\f1\u0085 1\n\u00a0v 1 2 1\u3000\ne 0 1\n\u2003\n",
		"comment-after-nbsp": "\u00a0# not a record\nt 0 1 0\nv 0 7 0\n",
		"invalid-utf8":       "t 0 1 0\nv 0\xc2 7 0\n",
		"space-in-invalid":   "t 0 1 0\nv 0\xe1\xc2\x857 0\n",
		"extra-fields":       "t 0 2 1 and more\nv 0 1 1 x y z\nv 1 2 1\ne 0 1 9 9 9\n",
		"short-v":            "t 0 1 0\nv 0\n",
		"short-e":            "t 0 2 1\nv 0 0 0\nv 1 0 0\ne 0\n",
		"signs":              "t 0 +2 +1\nv +0 1 1\nv 1 2 1\ne +0 +1\n",
		"signed-label":       "t 0 1 0\nv 0 +1 0\n",
		"wide-label":         "t 0 1 0\nv 0 4294967296 0\n",
		"huge-number":        "t 0 99999999999999999999 0\n",
		"hash-in-field":      "t 0 1 0\nv 0 1 0 # trailing\n#e 0 0\n",
		"no-final-newline":   "t 0 2 1\nv 0 1 1\nv 1 2 1\ne 0 1",
		"lone-record-letter": "t\n",
	} {
		inputs[name] = in
	}
	for _, c := range []struct {
		name string
		db   func() (*Database, error)
	}{
		{"gen-aids", func() (*Database, error) { return gen.Real(gen.AIDS, 0.002, 5) }},
		{"gen-synthetic", func() (*Database, error) {
			return gen.Synthetic(gen.SyntheticConfig{NumGraphs: 20, NumVertices: 30, NumLabels: 5, Degree: 4, Seed: 5})
		}},
	} {
		db, err := c.db()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteDatabase(&buf, db); err != nil {
			t.Fatal(err)
		}
		inputs[c.name] = buf.String()
	}

	text := func(graphs []*Graph) string {
		var buf bytes.Buffer
		if err := WriteDatabase(&buf, NewDatabase(graphs)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	accepted := 0
	for name, in := range inputs {
		want, wantErr := readGraphsRef(strings.NewReader(in), -1)
		db, err := ReadDatabase(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Errorf("%s: ReadDatabase error %v, reference %v", name, err, wantErr)
			continue
		}
		if err == nil {
			accepted++
			if got := text(db.Graphs()); got != text(want) {
				t.Errorf("%s: ReadDatabase parsed\n%s\nreference\n%s", name, got, text(want))
			}
		}
		first, firstErr := readGraphsRef(strings.NewReader(in), 1)
		g, err := ReadGraph(strings.NewReader(in))
		switch {
		case firstErr == nil && len(first) == 0:
			if err == nil {
				t.Errorf("%s: ReadGraph found a graph, the reference none", name)
			}
		case (err == nil) != (firstErr == nil) || err != nil && err.Error() != firstErr.Error():
			t.Errorf("%s: ReadGraph error %v, reference %v", name, err, firstErr)
		case err == nil && text([]*Graph{g}) != text(first):
			t.Errorf("%s: ReadGraph parsed\n%s\nreference\n%s", name, text([]*Graph{g}), text(first))
		}
	}
	if accepted < 10 || accepted == len(inputs) {
		t.Errorf("%d of %d inputs parse; the set should have plenty of both kinds", accepted, len(inputs))
	}
}

// TestReadDatabaseRejectsWrappingEndpoint: an endpoint past the 32 bits of a
// VertexID is malformed; it used to wrap, here onto vertex 0.
func TestReadDatabaseRejectsWrappingEndpoint(t *testing.T) {
	for _, in := range []string{
		"t 0 2 1\nv 0 0 0\nv 1 0 0\ne 4294967296 1\n",
		"t 0 2 1\nv 0 0 0\nv 1 0 0\ne 1 -4294967296\n",
	} {
		if _, err := ReadDatabase(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "malformed e record") {
			t.Errorf("ReadDatabase(%q) = %v, want a malformed e record", in, err)
		}
	}
}

// BenchmarkReadDatabase parses the 4 000 AIDS-like graphs the served
// workloads start from; B/op and allocs/op are per database, allocs/graph
// per graph. Builds run on GOMAXPROCS workers: pass -cpu to compare.
func BenchmarkReadDatabase(b *testing.B) {
	db, err := gen.Real(gen.AIDS, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, db); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		got, err := ReadDatabase(bytes.NewReader(buf.Bytes()))
		if err != nil || got.Len() != db.Len() {
			b.Fatalf("ReadDatabase: %d graphs, %v", got.Len(), err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*db.Len()), "allocs/graph")
}

// TestReadDatabaseFirstErrorInInputOrder: graph k of n, neither first nor
// last, fails Build — on a duplicate edge, a self-loop or an out-of-range
// endpoint — and a later line is malformed too. Graph by graph the build
// error comes first, so the pooled reader must return it, at any number of
// workers.
func TestReadDatabaseFirstErrorInInputOrder(t *testing.T) {
	db, err := gen.Real(gen.AIDS, 0.002, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, db); err != nil {
		t.Fatal(err)
	}
	records := strings.SplitAfter(buf.String(), "\nt ")
	k := len(records) / 2
	for name, bad := range map[string]string{
		"duplicate-edge": "0 3 3\nv 0 1 2\nv 1 2 1\nv 2 3 1\ne 0 1\ne 1 0\ne 0 2\n",
		"self-loop":      "0 2 2\nv 0 1 1\nv 1 2 2\ne 0 1\ne 1 1\n",
		"out-of-range":   "0 2 1\nv 0 1 1\nv 1 2 1\ne 0 7\n",
	} {
		parts := slices.Clone(records)
		parts[k] = bad + "t "
		parts[len(parts)-1] += "e 1 x\n"
		in := strings.Join(parts, "")
		_, want := readGraphsRef(strings.NewReader(in), -1)
		if want == nil || !strings.Contains(want.Error(), "graph: ") {
			t.Fatalf("%s: reference error %v, want graph %d's build error", name, want, k)
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			_, err := ReadDatabase(strings.NewReader(in))
			runtime.GOMAXPROCS(prev)
			if err == nil || err.Error() != want.Error() {
				t.Errorf("%s at GOMAXPROCS %d: %v, want %v", name, procs, err, want)
			}
		}
	}
}

// buildersOf is a lenient parse of in into one builder per t record,
// keeping every vertex and edge whose numbers parse, valid or not.
func buildersOf(in string) []*Builder {
	var bs []*Builder
	for _, line := range strings.Split(in, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || len(bs) == 0 && f[0] != "t" {
			continue
		}
		a, err1 := strconv.ParseUint(f[1], 10, 32)
		c, err2 := strconv.ParseUint(f[2], 10, 32)
		switch {
		case f[0] == "t":
			bs = append(bs, NewBuilder(0, 0))
		case err1 != nil || err2 != nil:
		case f[0] == "v":
			bs[len(bs)-1].AddVertex(Label(c))
		case f[0] == "e":
			bs[len(bs)-1].AddEdge(VertexID(a), VertexID(c))
		}
	}
	return bs
}

// TestBuildMatchesReference: Build yields the reference's graph field for
// field (so the same MemoryFootprint), or its error, over generated
// databases with their edges shuffled and flipped, the fuzz corpus, and
// graphs with a duplicate edge, a self-loop or an endpoint out of range.
func TestBuildMatchesReference(t *testing.T) {
	var builders []*Builder
	for _, in := range fuzzCorpus(t) {
		builders = append(builders, buildersOf(in)...)
	}
	builders = append(builders, buildersOf("t 0 3 3\nv 0 1 2\nv 1 2 1\nv 2 1 1\ne 0 1\ne 2 0\ne 1 0\n"+
		"t 1 2 1\nv 0 1 1\nv 1 2 1\ne 1 1\nt 2 2 1\nv 0 1 1\nv 1 2 1\ne 0 2\nt 3 0 0\n")...)
	rng := rand.New(rand.NewPCG(1, 2))
	for _, db := range testDatabases(t) {
		for _, g := range db.Graphs() {
			edges := g.Edges()
			rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			b := NewBuilder(g.NumVertices(), len(edges))
			for _, l := range g.Labels() {
				b.AddVertex(l)
			}
			for _, e := range edges {
				if rng.IntN(2) == 0 {
					e.U, e.V = e.V, e.U
				}
				b.AddEdge(e.U, e.V)
			}
			builders = append(builders, b)
		}
	}
	failed := 0
	for i, b := range builders {
		got, err := b.Build()
		want, wantErr := BuildRef(b)
		switch {
		case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
			t.Errorf("builder %d: error %v, reference %v", i, err, wantErr)
		case err != nil:
			failed++
		case !SameGraph(got, want) || got.MemoryFootprint() != want.MemoryFootprint():
			t.Errorf("builder %d: Build differs from the reference: %v vs %v", i, got, want)
		}
	}
	if failed < 3 || failed == len(builders) {
		t.Errorf("%d of %d builders fail; the set should have both kinds", failed, len(builders))
	}
}

// testDatabases are generated databases of every kind the tests draw on:
// AIDS-like graphs, and synthetic ones past the 64 vertices of a word.
func testDatabases(t testing.TB) []*Database {
	t.Helper()
	var dbs []*Database
	for _, mk := range []func() (*Database, error){
		func() (*Database, error) { return gen.Real(gen.AIDS, 0.01, 7) },
		func() (*Database, error) {
			return gen.Synthetic(gen.SyntheticConfig{NumGraphs: 20, NumVertices: 30, NumLabels: 5, Degree: 4, Seed: 5})
		},
		func() (*Database, error) {
			return gen.Synthetic(gen.SyntheticConfig{NumGraphs: 10, NumVertices: 100, NumLabels: 3, Degree: 6, Seed: 6})
		},
	} {
		db, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	return dbs
}

// TestBuildAllocations: Build allocates a fixed handful of arrays per
// graph, not a sort per vertex.
func TestBuildAllocations(t *testing.T) {
	if DebugInvariants {
		t.Skip("the sqdebug checks allocate")
	}
	db, err := gen.Real(gen.AIDS, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	builders := make([]*Builder, db.Len())
	for i, g := range db.Graphs() {
		builders[i] = NewBuilder(g.NumVertices(), g.NumEdges())
		for _, l := range g.Labels() {
			builders[i].AddVertex(l)
		}
		for _, e := range g.Edges() {
			builders[i].AddEdge(e.U, e.V)
		}
	}
	perDB := testing.AllocsPerRun(3, func() {
		for _, b := range builders {
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if perGraph := perDB / float64(len(builders)); perGraph > 20 {
		t.Errorf("Build: %.1f allocations per AIDS graph, want at most 20", perGraph)
	}
}
