package graph

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestWriteReadGraphRoundTrip(t *testing.T) {
	g := fig1Data()
	var buf bytes.Buffer
	if err := WriteGraph(&buf, 0, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, g2) {
		t.Error("graph changed across serialize/parse round trip")
	}
}

func TestWriteReadDatabaseRoundTrip(t *testing.T) {
	d := NewDatabase([]*Graph{fig1Query(), fig1Data(), MustFromEdges([]Label{7}, nil)})
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("round trip lost graphs: %d vs %d", d2.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if !sameGraph(d.Graph(i), d2.Graph(i)) {
			t.Errorf("graph %d changed across round trip", i)
		}
	}
}

func TestReadDatabaseCommentsAndBlanks(t *testing.T) {
	in := `
# molecule database
t 0 2 1
v 0 3 1
v 1 4 1

e 0 1
`
	d, err := ReadDatabase(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || d.Graph(0).NumVertices() != 2 || d.Graph(0).NumEdges() != 1 {
		t.Fatalf("parsed unexpectedly: %v", d.Graph(0))
	}
	if d.Graph(0).Label(1) != 4 {
		t.Errorf("Label(1) = %d, want 4", d.Graph(0).Label(1))
	}
}

func TestReadDatabaseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"v-before-t", "v 0 1 0\n"},
		{"e-before-t", "e 0 1\n"},
		{"bad-t", "t 0 x y\n"},
		{"short-t", "t 0 1\n"},
		{"bad-v", "t 0 1 0\nv zero 1 0\n"},
		{"nonconsecutive-v", "t 0 2 0\nv 1 0 0\n"},
		{"bad-e", "t 0 2 1\nv 0 0 1\nv 1 0 1\ne a b\n"},
		{"vertex-count-mismatch", "t 0 3 0\nv 0 0 0\n"},
		{"edge-count-mismatch", "t 0 2 2\nv 0 0 0\nv 1 0 0\ne 0 1\n"},
		{"unknown-record", "t 0 1 0\nv 0 0 0\nx 1 2\n"},
		{"edge-out-of-range", "t 0 2 1\nv 0 0 1\nv 1 0 1\ne 0 9\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadDatabase(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("ReadDatabase(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestReadGraphEmptyInput(t *testing.T) {
	if _, err := ReadGraph(strings.NewReader("")); err == nil {
		t.Fatal("ReadGraph on empty input should fail")
	}
}

func TestReadGraphTakesFirstOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDatabase(&buf, NewDatabase([]*Graph{fig1Query(), fig1Data()})); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, fig1Query()) {
		t.Error("ReadGraph should return the first graph")
	}
}

// A query is parsed once per served request: ReadGraph on a request-sized
// graph must not bring a database-sized read buffer with it, and a graph
// far larger than the scanner's first buffer must still parse.
func TestReadGraphBufferFitsTheGraph(t *testing.T) {
	var small bytes.Buffer
	if err := WriteGraph(&small, 0, fig1Query()); err != nil {
		t.Fatal(err)
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ReadGraph(bytes.NewReader(small.Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / calls; got > 16<<10 {
		t.Errorf("ReadGraph of a %d-byte graph allocates %d bytes, want at most 16 KB", small.Len(), got)
	}

	const n = 20000 // a path; its text is some 300 KB
	labels := make([]Label, n)
	edges := make([]Edge, n-1)
	for i := range edges {
		edges[i] = Edge{VertexID(i), VertexID(i + 1)}
	}
	long := MustFromEdges(labels, edges)
	var big bytes.Buffer
	if err := WriteGraph(&big, 0, long); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&big)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(long, got) {
		t.Error("large graph changed across serialize/parse round trip")
	}
}
