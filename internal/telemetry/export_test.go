package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe bytes.Buffer for test sinks.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func decodeEvents(t *testing.T, data string) []Event {
	t.Helper()
	var out []Event
	sc := bufio.NewScanner(strings.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, ev)
	}
	return out
}

func TestExporterAnomalousAlwaysKept(t *testing.T) {
	var buf syncBuffer
	// HealthyFraction 0: drop every healthy event by policy.
	x := NewWriterExporter(&buf, ExportConfig{HealthyFraction: 0, Buffer: 4})
	for i := 0; i < 50; i++ {
		x.Emit(Event{Fingerprint: 1, DurationUS: 10}) // healthy
		x.Emit(Event{Fingerprint: 2, DurationUS: 99, TimedOut: true})
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, buf.String())
	if len(evs) != 50 {
		t.Fatalf("exported %d events, want exactly the 50 anomalous ones", len(evs))
	}
	for _, ev := range evs {
		if !ev.Anomalous() {
			t.Fatalf("healthy event leaked through fraction=0: %+v", ev)
		}
	}
	st := x.Stats()
	if st.Exported != 50 || st.SampledOut != 50 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExporterHealthySamplingExact(t *testing.T) {
	var buf syncBuffer
	// 1-in-10 deterministic sampling.
	x := NewWriterExporter(&buf, ExportConfig{HealthyFraction: 0.1, Buffer: 256})
	for i := 0; i < 100; i++ {
		x.Emit(Event{Fingerprint: 7, DurationUS: int64(i)})
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, buf.String())
	if len(evs) != 10 {
		t.Fatalf("exported %d healthy events, want exactly 10 (1-in-10 of 100)", len(evs))
	}
	st := x.Stats()
	if st.SampledOut != 90 || st.Dropped != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestExporterFractionOneKeepsAll(t *testing.T) {
	var buf syncBuffer
	x := NewWriterExporter(&buf, ExportConfig{HealthyFraction: 1, Buffer: 256})
	for i := 0; i < 25; i++ {
		x.Emit(Event{Fingerprint: 9, DurationUS: 1})
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if evs := decodeEvents(t, buf.String()); len(evs) != 25 {
		t.Fatalf("exported %d, want 25", len(evs))
	}
}

// blockingWriter blocks every Write until released, simulating a stuck
// sink so the ring backs up.
type blockingWriter struct {
	release chan struct{}
	buf     syncBuffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	<-w.release
	return w.buf.Write(p)
}

func TestExporterBackpressureDropsHealthyKeepsAnomalous(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	x := newExporter(&writerSink{w: bw, bw: bufio.NewWriterSize(bw, 1)}, ExportConfig{HealthyFraction: 1, Buffer: 2})

	// One event gets pulled by the writer goroutine and blocks in Write;
	// fill the 2-slot ring behind it, then overflow with healthy events.
	x.Emit(Event{Fingerprint: 1, DurationUS: 1})
	deadline := time.Now().Add(2 * time.Second)
	for x.Stats().Dropped == 0 {
		x.Emit(Event{Fingerprint: 1, DurationUS: 1})
		if time.Now().After(deadline) {
			t.Fatal("no healthy drop despite stuck sink")
		}
	}

	// An anomalous emit must wait for space, not drop: release the sink
	// shortly after and the event must land.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(bw.release)
	}()
	x.Emit(Event{Fingerprint: 2, TimedOut: true, DurationUS: 5})
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	var sawAnomalous bool
	for _, ev := range decodeEvents(t, bw.buf.String()) {
		if ev.Anomalous() {
			sawAnomalous = true
		}
	}
	if !sawAnomalous {
		t.Fatal("anomalous event lost under backpressure")
	}
	if x.Stats().Dropped == 0 {
		t.Fatal("expected healthy drops under backpressure")
	}
}

func TestExporterFileSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	x, err := NewExporter(path, ExportConfig{HealthyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	x.Emit(Event{Fingerprint: 3, DurationUS: 42})
	x.Emit(Event{Fingerprint: 4, Error: true, DurationUS: 7})
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs := decodeEvents(t, string(data))
	if len(evs) != 2 {
		t.Fatalf("file has %d events, want 2", len(evs))
	}
	if evs[0].Fingerprint != 3 || evs[1].Fingerprint != 4 || !evs[1].Error {
		t.Fatalf("events = %+v", evs)
	}
}

func TestExporterEmptyDestDisabled(t *testing.T) {
	x, err := NewExporter("", ExportConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if x != nil {
		t.Fatal("empty dest must return a nil (disabled) exporter")
	}
	// Every method is a no-op on nil.
	x.Emit(Event{Fingerprint: 1})
	if st := x.Stats(); st != (ExporterStats{}) {
		t.Fatalf("nil stats = %+v", st)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestExporterHTTPSink(t *testing.T) {
	var mu sync.Mutex
	var body bytes.Buffer
	var posts atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct := r.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type = %q", ct)
		}
		mu.Lock()
		body.ReadFrom(r.Body)
		mu.Unlock()
		posts.Add(1)
	}))
	defer srv.Close()

	x, err := NewExporter(srv.URL, ExportConfig{HealthyFraction: 1, FlushEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x.Emit(Event{Fingerprint: Fingerprint(i + 1), DurationUS: int64(i)})
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	evs := decodeEvents(t, body.String())
	mu.Unlock()
	if len(evs) != 20 {
		t.Fatalf("server received %d events, want 20", len(evs))
	}
	if posts.Load() == 0 {
		t.Fatal("no POSTs received")
	}
	if st := x.Stats(); st.SinkErrors != 0 {
		t.Fatalf("sink errors: %+v", st)
	}
}

func TestExporterHTTPSinkErrorCounted(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer srv.Close()
	x, err := NewExporter(srv.URL, ExportConfig{HealthyFraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	x.Emit(Event{Fingerprint: 1, Error: true})
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	if st := x.Stats(); st.SinkErrors == 0 {
		t.Fatalf("expected sink errors, stats = %+v", st)
	}
}

// TestExporterHTTPSinkHungCollector: a collector that accepts the
// connection and never answers costs lost batches, counted, and does not
// block Emit or Close for good. With a one-event ring the third anomalous
// Emit waits for the writer, which waits for the first POST; each POST
// gives up after exportTimeout, so three events cost at most three.
func TestExporterHTTPSinkHungCollector(t *testing.T) {
	t.Parallel()
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	x, err := NewExporter(srv.URL, ExportConfig{Buffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 3; i++ {
			x.Emit(Event{Fingerprint: Fingerprint(i + 1), Error: true})
		}
		x.Close()
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("three anomalous Emits and Close still blocked after 15s")
	}
	if st := x.Stats(); st.SinkErrors == 0 {
		t.Fatalf("expected sink errors, stats = %+v", st)
	}
}
