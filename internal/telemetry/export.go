package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// ExportConfig tunes an Exporter.
type ExportConfig struct {
	// HealthyFraction is the fraction of non-anomalous events exported
	// (anomalous events are always exported). 0 exports no healthy events;
	// >= 1 exports all. Sampling is deterministic — every ceil(1/f)-th
	// healthy event is kept — so tests and capacity planning see exact
	// rates rather than coin flips.
	HealthyFraction float64
	// Buffer is the event ring capacity between the fast path and the
	// writer goroutine (<= 0 selects DefaultExportBuffer). Healthy events
	// that find the ring full are dropped and counted; anomalous events
	// wait for space — tail sampling guarantees them.
	Buffer int
	// FlushEvery bounds how stale a buffered batch may get when the event
	// stream goes quiet (<= 0 selects 1s).
	FlushEvery time.Duration
}

// DefaultExportBuffer is the event ring capacity when none is given.
const DefaultExportBuffer = 1024

// ExporterStats are the exporter's backpressure and delivery counters,
// folded into /metrics by the server.
type ExporterStats struct {
	// Exported counts events handed to the sink (written to the file or
	// queued into an HTTP batch).
	Exported int64 `json:"exported"`
	// SampledOut counts healthy events the tail sampler discarded by
	// policy.
	SampledOut int64 `json:"sampled_out"`
	// Dropped counts healthy events discarded because the ring was full —
	// backpressure, not policy.
	Dropped int64 `json:"dropped"`
	// SinkErrors counts failed writes/POSTs; each loses one batch.
	SinkErrors int64 `json:"sink_errors"`
}

// Exporter ships wide events to an NDJSON sink (a file, or an HTTP
// endpoint receiving batched POST bodies) from a dedicated goroutine.
// The fast path — Emit — never blocks on I/O and never allocates: it is
// a sampling decision plus a channel send of a value struct. Tail
// sampling semantics:
//
//   - anomalous events (Event.Anomalous) are always delivered; if the
//     ring is full, Emit waits for space rather than dropping;
//   - healthy events are sampled down to HealthyFraction, and dropped
//     (counted) rather than waited for when the ring is full.
//
// All methods are safe on a nil *Exporter (no-ops), so "export disabled"
// costs one branch on the fast path.
type Exporter struct {
	ch   chan Event
	quit chan struct{} // closed by Close: stop accepting, drain, flush
	done chan struct{} // closed by the writer goroutine on exit

	healthyEvery uint64 // keep 1 of every N healthy events; 0 = none
	healthySeen  atomic.Uint64

	exported   atomic.Int64
	sampledOut atomic.Int64
	dropped    atomic.Int64
	sinkErrors atomic.Int64

	sink sink
}

// sink is one NDJSON destination; write receives complete NDJSON lines.
type sink interface {
	write(line []byte) error
	flush() error
	close() error
}

// NewExporter opens the sink named by dest — an http:// or https:// URL
// (batched POSTs of NDJSON, Content-Type application/x-ndjson) or a file
// path (appended, one JSON object per line) — and starts the writer
// goroutine. An empty dest returns (nil, nil): a nil *Exporter is the
// disabled exporter.
func NewExporter(dest string, cfg ExportConfig) (*Exporter, error) {
	if dest == "" {
		return nil, nil
	}
	if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") {
		return newExporter(&httpSink{url: dest, client: &http.Client{Timeout: exportTimeout}}, cfg), nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("telemetry: opening export file: %w", err)
	}
	return NewWriterExporter(f, cfg), nil
}

// NewWriterExporter exports to an arbitrary writer (tests, stdout). If w
// is an io.Closer it is closed by Close.
func NewWriterExporter(w io.Writer, cfg ExportConfig) *Exporter {
	return newExporter(&writerSink{w: w, bw: bufio.NewWriter(w)}, cfg)
}

func newExporter(s sink, cfg ExportConfig) *Exporter {
	buffer := cfg.Buffer
	if buffer <= 0 {
		buffer = DefaultExportBuffer
	}
	flushEvery := cfg.FlushEvery
	if flushEvery <= 0 {
		flushEvery = time.Second
	}
	var every uint64
	if cfg.HealthyFraction > 0 {
		if cfg.HealthyFraction >= 1 {
			every = 1
		} else {
			every = uint64(1/cfg.HealthyFraction + 0.5)
			if every == 0 {
				every = 1
			}
		}
	}
	x := &Exporter{
		ch:           make(chan Event, buffer),
		quit:         make(chan struct{}),
		done:         make(chan struct{}),
		healthyEvery: every,
		sink:         s,
	}
	go x.run(flushEvery)
	return x
}

// Emit submits one event. Anomalous events are delivered unless the
// exporter is shutting down; healthy events are sampled and lossy under
// backpressure. Safe on nil.
func (x *Exporter) Emit(ev Event) {
	if x == nil {
		return
	}
	if !ev.Anomalous() {
		if x.healthyEvery == 0 || x.healthyEvery > 1 && x.healthySeen.Add(1)%x.healthyEvery != 0 {
			x.sampledOut.Add(1)
			return
		}
		select {
		case x.ch <- ev:
		default:
			x.dropped.Add(1)
		}
		return
	}
	// Anomalous: wait for ring space — these are the events postmortems
	// need, and the writer goroutine is always draining.
	select {
	case x.ch <- ev:
	case <-x.quit:
		x.dropped.Add(1)
	}
}

// Stats returns the delivery counters.
func (x *Exporter) Stats() ExporterStats {
	if x == nil {
		return ExporterStats{}
	}
	return ExporterStats{
		Exported:   x.exported.Load(),
		SampledOut: x.sampledOut.Load(),
		Dropped:    x.dropped.Load(),
		SinkErrors: x.sinkErrors.Load(),
	}
}

// Close stops the exporter: buffered events are drained and flushed, the
// sink is closed. Events emitted after Close may be dropped (counted).
// Safe on nil and idempotent-enough for shutdown paths (second close of
// quit would panic; callers own the single Close, as main does).
func (x *Exporter) Close() error {
	if x == nil {
		return nil
	}
	close(x.quit)
	<-x.done
	return x.sink.close()
}

// run is the writer goroutine: encode, write, flush when idle. A sink
// panic must not take down the process (export is telemetry, never
// load-bearing), so the loop carries a recover that degrades the
// exporter to counting errors.
func (x *Exporter) run(flushEvery time.Duration) {
	defer close(x.done)
	defer func() {
		if v := recover(); v != nil {
			x.sinkErrors.Add(1)
			// Keep draining so Emit never blocks forever on a dead writer.
			for {
				select {
				case <-x.ch:
					x.dropped.Add(1)
				case <-x.quit:
					return
				}
			}
		}
	}()
	ticker := time.NewTicker(flushEvery)
	defer ticker.Stop()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	writeOne := func(ev Event) {
		buf.Reset()
		if err := enc.Encode(ev); err != nil {
			x.sinkErrors.Add(1)
			return
		}
		if err := x.sink.write(buf.Bytes()); err != nil {
			x.sinkErrors.Add(1)
			return
		}
		x.exported.Add(1)
	}
	flush := func() {
		if err := x.sink.flush(); err != nil {
			x.sinkErrors.Add(1)
		}
	}
	for {
		select {
		case ev := <-x.ch:
			writeOne(ev)
			if len(x.ch) == 0 {
				flush()
			}
		case <-ticker.C:
			flush()
		case <-x.quit:
			for {
				select {
				case ev := <-x.ch:
					writeOne(ev)
				default:
					flush()
					return
				}
			}
		}
	}
}

// writerSink appends NDJSON lines to one writer through a buffer.
type writerSink struct {
	w  io.Writer
	bw *bufio.Writer
}

func (s *writerSink) write(line []byte) error { _, err := s.bw.Write(line); return err }
func (s *writerSink) flush() error            { return s.bw.Flush() }
func (s *writerSink) close() error {
	err := s.bw.Flush()
	if c, ok := s.w.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// httpSink batches NDJSON lines and POSTs them. A failed POST drops the
// batch (counted by the caller via the returned error) — the export
// stream is lossy-by-design under a broken collector, never a memory
// leak.
type httpSink struct {
	url    string
	client *http.Client
	batch  bytes.Buffer
	lines  int
}

const (
	// httpBatchLines bounds a POST body; a flush is forced when reached.
	httpBatchLines = 256
	// exportTimeout bounds one POST. Anomalous events wait for ring space,
	// and the server emits them on its request goroutines, so a collector
	// that never answers must cost a lost batch, not a hung server.
	exportTimeout = 2 * time.Second
)

func (s *httpSink) write(line []byte) error {
	s.batch.Write(line)
	s.lines++
	if s.lines >= httpBatchLines {
		return s.flush()
	}
	return nil
}

func (s *httpSink) flush() error {
	if s.lines == 0 {
		return nil
	}
	body := make([]byte, s.batch.Len())
	copy(body, s.batch.Bytes())
	s.batch.Reset()
	s.lines = 0
	resp, err := s.client.Post(s.url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("telemetry: export POST: status %d", resp.StatusCode)
	}
	return nil
}

func (s *httpSink) close() error { return s.flush() }
