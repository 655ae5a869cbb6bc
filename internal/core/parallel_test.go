package core

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

func TestParallelCFQLMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	db := randomDB(r, 30, 9, 2)
	seq := NewCFQL()
	par := NewParallelCFQL(4)
	if err := seq.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := par.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		q := walkQuery(r, db.Graph(r.Intn(db.Len())), 1+r.Intn(5))
		a := seq.Query(q, QueryOptions{})
		b := par.Query(q, QueryOptions{})
		if !equalInts(a.Answers, b.Answers) {
			t.Fatalf("parallel answers %v != sequential %v", b.Answers, a.Answers)
		}
		if a.Candidates != b.Candidates {
			t.Fatalf("parallel candidates %d != sequential %d", b.Candidates, a.Candidates)
		}
	}
	if par.IndexMemory() != 0 {
		t.Error("parallel vcFV should be index-free")
	}
	if par.Name() != "CFQL-parallel" {
		t.Errorf("Name = %q", par.Name())
	}
}

func TestParallelCFQLWorkersOption(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	db := randomDB(r, 12, 8, 2)
	e := NewParallelCFQL(0) // 0 selects the default pool
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)
	a := e.Query(q, QueryOptions{Workers: 1})
	b := e.Query(q, QueryOptions{Workers: 8})
	if !equalInts(a.Answers, b.Answers) {
		t.Fatalf("answers differ across worker counts: %v vs %v", a.Answers, b.Answers)
	}
}

func TestParallelCFQLDeadline(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	db := randomDB(r, 20, 8, 2)
	e := NewParallelCFQL(4)
	if err := e.Build(db, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	q := walkQuery(r, db.Graph(0), 3)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	res := e.Query(q, QueryOptions{Context: ctx})
	if !res.TimedOut {
		t.Error("expired deadline should mark TimedOut")
	}
}
