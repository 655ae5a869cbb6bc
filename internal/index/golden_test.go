package index

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"

	"subgraphquery/internal/gen"
	"subgraphquery/internal/graph"
)

// TestGoldenFootprintsAndFeatures pins what the indexes build on two fixed
// generated corpora to the values recorded at the commit before the path
// trie and the mined posting table replaced five index implementations and
// enumerateTreeCodes stopped revisiting subtrees: MemoryFootprint (what
// Engine.IndexMemory reports) of every index, the mined tables' features
// and posting lists, and CT-Index's fingerprints, bit for bit.
func TestGoldenFootprintsAndFeatures(t *testing.T) {
	syn, err := gen.Synthetic(gen.SyntheticConfig{NumGraphs: 40, NumVertices: 16, NumLabels: 4, Degree: 3, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	aids, err := gen.Real(gen.AIDS, 0.001, 17)
	if err != nil {
		t.Fatal(err)
	}
	type golden struct {
		footprint int64
		content   uint64 // postings or fingerprints hash; 0: not hashed
	}
	for _, c := range []struct {
		name string
		db   *graph.Database
		want map[string]golden
	}{
		{"synthetic", syn, map[string]golden{
			"Grapes":    {208864, 0},
			"GGSX":      {137192, 0},
			"GraphGrep": {200720, 0},
			"CT-Index":  {21440, 0xef7531862a4ec2d5},
			"gIndex":    {82936, 0x9655522f11b6a724},
			"TreePi":    {33497, 0x552dec4a48705596},
			"FG-Index":  {168145, 0xb4a9b3d8e47fa18f},
		}},
		{"aids", aids, map[string]golden{
			"Grapes":    {422840, 0},
			"GGSX":      {335020, 0},
			"GraphGrep": {180944, 0},
			"CT-Index":  {26800, 0xa5b86f6f1b929122},
			"gIndex":    {58832, 0xc2ae9b3bc93d76f8},
			"TreePi":    {43261, 0x74a18821bd14494e},
			"FG-Index":  {108990, 0xbd46516a84ca8fa1},
		}},
	} {
		for _, mk := range Catalogue {
			ix := mk()
			want, ok := c.want[ix.Name()]
			if !ok {
				t.Errorf("%s: no golden values for %s; record them", c.name, ix.Name())
				continue
			}
			if err := ix.Build(c.db, BuildOptions{Workers: 3}); err != nil {
				t.Fatal(err)
			}
			if got := ix.MemoryFootprint(); got != want.footprint {
				t.Errorf("%s %s: MemoryFootprint %d, recorded %d", c.name, ix.Name(), got, want.footprint)
			}
			var got uint64
			switch ix := ix.(type) {
			case *Mined:
				got = hashPostings(ix.features)
			case *CTIndex:
				got = hashFingerprints(ix.fingerprints)
			}
			if got != want.content {
				t.Errorf("%s %s: content hash %#x, recorded %#x", c.name, ix.Name(), got, want.content)
			}
		}
	}
}

func hashPostings(features map[string][]int32) uint64 {
	keys := make([]string, 0, len(features))
	for k := range features {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := fnv.New64a()
	var buf [4]byte
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
		for _, id := range features[k] {
			binary.LittleEndian.PutUint32(buf[:], uint32(id))
			h.Write(buf[:])
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func hashFingerprints(fps [][]uint64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, fp := range fps {
		for _, w := range fp {
			binary.LittleEndian.PutUint64(buf[:], w)
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
