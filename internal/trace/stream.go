package trace

import "sync"

// Stream is the capture→analyze handoff for the pipelined detection
// path: the recorder publishes each event chunk as soon as it seals
// (execution keeps running), and a replay consumer blocks on the next
// chunk, so analysis overlaps capture instead of waiting for the whole
// trace. Chunks are immutable once published; the label table is
// snapshotted alongside each chunk (every label referenced by a chunk is
// interned before the chunk seals). The chunk boundaries are the
// recorder's own, so a streamed replay and a replay of the completed
// trace see identical seams.
type Stream struct {
	mu        sync.Mutex
	cond      *sync.Cond
	chunks    [][]Event
	labels    []string
	tail      int64
	done      bool
	err       error
	published int
}

// NewStream returns an empty stream; hand it to Recorder.StreamTo before
// the instrumented execution starts.
func NewStream() *Stream {
	s := &Stream{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// publish hands a sealed chunk to consumers together with a snapshot of
// the label table as of sealing time.
func (s *Stream) publish(chunk []Event, labels []string) {
	s.mu.Lock()
	s.chunks = append(s.chunks, chunk)
	s.labels = labels
	s.published++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish marks the stream complete, recording the trailing work units.
func (s *Stream) finish(tail int64) {
	s.mu.Lock()
	s.tail = tail
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Fail ends the stream with a capture error: consumers waiting on the
// next chunk unblock and surface it. The producer must call Fail on any
// path where Recorder.Trace will never run, or consumers block forever.
func (s *Stream) Fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.done = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// nextChunk blocks until chunk i is published or the stream ends.
func (s *Stream) nextChunk(i int) ([]Event, []string, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return nil, nil, false, s.err
		}
		if i < len(s.chunks) {
			return s.chunks[i], s.labels, true, nil
		}
		if s.done {
			return nil, nil, false, nil
		}
		s.cond.Wait()
	}
}

// tailWork reports the trailing work units; valid once the stream has
// finished.
func (s *Stream) tailWork() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tail
}

// Chunks reports how many chunks have been published so far.
func (s *Stream) Chunks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.published
}

// StreamOf returns an already-completed stream over a captured trace:
// every chunk published, tail work recorded. A streamed replay of it
// sees exactly the batch replay's events — used by tests and tools that
// exercise the streaming path without a live capture.
func StreamOf(t *Trace) *Stream {
	s := NewStream()
	for _, c := range t.chunks {
		s.publish(c, t.labels)
	}
	s.finish(t.TailWork)
	return s
}
