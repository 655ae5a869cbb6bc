package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// returns them as a database.
func ReadDatabase(r io.Reader) (*Database, error) {
	graphs, err := readGraphs(r, -1)
	if err != nil {
		return nil, err
	}
	return NewDatabase(graphs), nil
}

// ReadGraph parses exactly one graph from r.
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

func readGraphs(r io.Reader, limit int) ([]*Graph, error) {
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
			// The declared counts are capacity hints here (flush enforces
			// them exactly), so cap them: a hostile header must not force
			// a huge allocation before any vertex has been parsed.
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
