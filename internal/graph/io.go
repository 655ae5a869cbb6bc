package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The text serialization follows the widely used ".graph" format of the
// subgraph matching literature (and of the paper's public code release):
//
//	t <id> <numVertices> <numEdges>
//	v <vertexID> <label> <degree>
//	e <src> <dst>
//
// One 't' record per graph; a database file is a concatenation of graphs.
// The degree field on 'v' lines is informational and validated when present.

// WriteGraph serializes g with the given graph id.
func WriteGraph(w io.Writer, id int, g *Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "t %d %d %d\n", id, g.NumVertices(), g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		fmt.Fprintf(bw, "v %d %d %d\n", v, g.Label(VertexID(v)), g.Degree(VertexID(v)))
	}
	for _, e := range g.Edges() {
		fmt.Fprintf(bw, "e %d %d\n", e.U, e.V)
	}
	return bw.Flush()
}

// WriteDatabase serializes every graph of d in order.
func WriteDatabase(w io.Writer, d *Database) error {
	for i := 0; i < d.Len(); i++ {
		if err := WriteGraph(w, i, d.Graph(i)); err != nil {
			return err
		}
	}
	return nil
}

// ReadDatabase parses a concatenation of graphs in the text format and
// returns them as a database. Graphs are built on GOMAXPROCS workers while
// the parse goes on; the error is the one a graph-by-graph reader meets first.
func ReadDatabase(r io.Reader) (*Database, error) {
	graphs, err := readGraphs(r, -1)
	if err != nil {
		return nil, err
	}
	return NewDatabase(graphs), nil
}

// ReadGraph parses exactly one graph from r, on the caller's goroutine.
func ReadGraph(r io.Reader) (*Graph, error) {
	graphs, err := readGraphs(r, 1)
	if err != nil {
		return nil, err
	}
	if len(graphs) == 0 {
		return nil, fmt.Errorf("graph: no graph found in input")
	}
	return graphs[0], nil
}

// parsed is one graph of the input: its builder until it is built, then
// the graph or the build's error, prefixed with the line whose record ended
// the graph (none at the end of the input).
type parsed struct {
	b    *Builder
	line int
	g    *Graph
	err  error
}

func (p *parsed) build() {
	if p.g, p.err = p.b.Build(); p.err != nil && p.line > 0 {
		p.err = fmt.Errorf("line %d: %w", p.line, p.err)
	}
	p.b = nil // its arrays are garbage once built
}

func readGraphs(r io.Reader, limit int) ([]*Graph, error) {
	// Builds run on a pool fed through a queue of one slot per worker, so
	// the parse runs at most that far ahead and only a few builders are
	// alive at once. With one processor, or for one graph, they run inline.
	var done []*parsed
	var queue chan *parsed
	var wg sync.WaitGroup
	if workers := runtime.GOMAXPROCS(0); limit != 1 && workers > 1 {
		queue = make(chan *parsed, workers)
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				for p := range queue {
					p.build()
				}
			}()
		}
	}
	err := parseGraphs(r, limit, func(p *parsed) {
		if done = append(done, p); queue != nil {
			queue <- p
		} else {
			p.build()
		}
	})
	if queue != nil {
		close(queue)
		wg.Wait()
	}
	// Every graph in done ends before the parse error, so its build error wins.
	graphs := make([]*Graph, len(done))
	for i, p := range done {
		if p.err != nil {
			return nil, p.err
		}
		graphs[i] = p.g
	}
	return graphs, err
}

// parseGraphs parses up to limit graphs (all of them if limit < 0) and
// hands each one's builder to emit; it stops at the first parse error.
func parseGraphs(r io.Reader, limit int, emit func(*parsed)) error {
	sc := bufio.NewScanner(r)
	if limit == 1 {
		// One graph is a request body of a few hundred bytes, parsed once
		// per served query: the scanner starts with its own 4 KB buffer
		// and grows it. A 64 KB buffer per call would be more than
		// everything else a served query allocates.
		sc.Buffer(nil, 1<<24)
	} else {
		sc.Buffer(make([]byte, 1<<16), 1<<24)
	}

	graphs := 0 // emitted so far
	var b *Builder
	var wantV, wantE int
	lineNo := 0

	// flush ends the graph being parsed at line (0: the end of the input).
	flush := func(line int) error {
		if b == nil {
			return nil
		}
		if b.NumVertices() != wantV {
			return fmt.Errorf("graph: declared %d vertices, got %d", wantV, b.NumVertices())
		}
		if b.NumEdges() != wantE {
			return fmt.Errorf("graph: declared %d edges, got %d", wantE, b.NumEdges())
		}
		emit(&parsed{b: b, line: line})
		graphs, b = graphs+1, nil
		return nil
	}

	// A line is split where it lies in the scanner's buffer and its numbers
	// are parsed from those bytes (strconv does not keep the string(f)
	// temporaries, so they stay off the heap): a database is a few hundred
	// thousand lines, and its parse is part of every start-up.
	var fields [4][]byte
	malformed := func() error {
		return fmt.Errorf("line %d: malformed %s record %q", lineNo, fields[0], bytes.TrimSpace(sc.Bytes()))
	}
	for sc.Scan() {
		lineNo++
		n := splitFields(sc.Bytes(), &fields)
		if n == 0 || fields[0][0] == '#' {
			continue
		}
		switch string(fields[0]) {
		case "t":
			if err := flush(lineNo); err != nil {
				return fmt.Errorf("line %d: %w", lineNo, err)
			}
			if limit >= 0 && graphs == limit {
				return nil
			}
			if n < 4 {
				return malformed()
			}
			var err1, err2 error
			wantV, err1 = strconv.Atoi(string(fields[2]))
			wantE, err2 = strconv.Atoi(string(fields[3]))
			if err1 != nil || err2 != nil || wantV < 0 || wantE < 0 {
				return malformed()
			}
			// The declared counts are capacity hints here (flush enforces
			// them exactly), so cap them: a hostile header must not force
			// a huge allocation before any vertex has been parsed.
			const maxHint = 1 << 20
			b = NewBuilder(min(wantV, maxHint), min(wantE, maxHint))
		case "v":
			if b == nil {
				return fmt.Errorf("line %d: v record before t record", lineNo)
			}
			if n < 3 {
				return malformed()
			}
			id, err1 := strconv.Atoi(string(fields[1]))
			lab, err2 := strconv.ParseUint(string(fields[2]), 10, 32)
			if err1 != nil || err2 != nil {
				return malformed()
			}
			if id != b.NumVertices() {
				return fmt.Errorf("line %d: vertex ids must be consecutive, got %d want %d", lineNo, id, b.NumVertices())
			}
			b.AddVertex(Label(lab))
		case "e":
			if b == nil {
				return fmt.Errorf("line %d: e record before t record", lineNo)
			}
			if n < 3 {
				return malformed()
			}
			u, err1 := strconv.Atoi(string(fields[1]))
			v, err2 := strconv.Atoi(string(fields[2]))
			if err1 != nil || err2 != nil || int(VertexID(u)) != u || int(VertexID(v)) != v {
				return malformed() // also an endpoint no VertexID holds: it must not wrap into range
			}
			b.AddEdge(VertexID(u), VertexID(v))
		default:
			return fmt.Errorf("line %d: unknown record type %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return flush(0)
}

// splitFields is strings.Fields for a line that stays where it is: it
// points fields at the first four fields of line, which is as many as any
// record has, and returns how many it found.
func splitFields(line []byte, fields *[4][]byte) int {
	n, start := 0, -1
	for i := 0; i < len(line); {
		c, w := rune(line[i]), 1
		if c >= utf8.RuneSelf {
			c, w = utf8.DecodeRune(line[i:])
		}
		switch {
		case !unicode.IsSpace(c):
			if start < 0 {
				start = i
			}
		case start >= 0:
			fields[n] = line[start:i]
			if n++; n == len(fields) {
				return n
			}
			start = -1
		}
		i += w
	}
	if start >= 0 {
		fields[n] = line[start:]
		n++
	}
	return n
}
