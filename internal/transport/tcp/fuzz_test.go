package tcp

import (
	"bufio"
	"bytes"
	"sync"
	"testing"

	"dss/internal/transport"
)

// fuzzReaderEndpoint builds the minimal endpoint state readFrames needs:
// mailboxes to deliver into and a peer connection holding the incoming
// sequence state. No sockets — the fuzzer feeds the byte stream directly.
func fuzzReaderEndpoint() (*Endpoint, *peerConn) {
	e := &Endpoint{rank: 0, p: 2, done: make(chan struct{})}
	e.boxes = []*transport.Mailbox{transport.NewMailbox(), transport.NewMailbox()}
	pc := newPeerConn(e, 1, "")
	return e, pc
}

// frameBytes encodes one wire frame exactly like the writer goroutine.
func frameBytes(seq, ack uint64, tag int, payload []byte) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := writeFrame(w, seq, ack, tag, payload); err != nil {
		panic(err)
	}
	w.Flush()
	return buf.Bytes()
}

// TestSupersededReaderCannotDeliver pins the reconnect race fix: a reader
// still draining a replaced connection's buffered frames must stop at its
// next frame instead of delivering it, while the current connection's
// reader delivers the same frames exactly once.
func TestSupersededReaderCannotDeliver(t *testing.T) {
	e, pc := fuzzReaderEndpoint()
	stream := append(frameBytes(1, 0, 7, []byte("a")), frameBytes(2, 0, 7, []byte("b"))...)
	stale := pc.gen
	pc.gen++ // a reconnect adopted a replacement connection
	if err := e.readFrames(1, pc, stale, bufio.NewReader(bytes.NewReader(stream))); err == nil {
		t.Fatal("superseded reader returned nil")
	}
	if d := pc.delivered.Load(); d != 0 {
		t.Fatalf("superseded reader delivered up to frame %d", d)
	}
	e.readFrames(1, pc, pc.gen, bufio.NewReader(bytes.NewReader(stream)))
	for _, want := range []string{"a", "b"} {
		if got, ok := e.boxes[1].Pop(7); !ok || string(got) != want {
			t.Fatalf("got %q (ok=%v), want %q", got, ok, want)
		}
	}
	if d := pc.delivered.Load(); d != 2 {
		t.Fatalf("current reader delivered up to frame %d, want 2", d)
	}
}

// FuzzFrameHeader drives the connection reader with arbitrary bytes. The
// invariant under fuzz: readFrames NEVER panics — every malformed header
// (oversized length, payload on an ack frame, a sequence gap, a stream
// that ends mid-frame) comes back as a connection error, which the read
// loop turns into a reconnect or an endpoint failure. A panic here would
// kill the reader goroutine of a live run.
func FuzzFrameHeader(f *testing.F) {
	// Well-formed streams, so mutations explore the interesting frontier.
	f.Add(frameBytes(1, 0, 7, []byte("hello")))
	f.Add(frameBytes(0, 3, 0, nil)) // pure ack
	f.Add(append(frameBytes(1, 0, 7, []byte("a")), frameBytes(2, 0, 7, []byte("b"))...))
	f.Add(frameBytes(5, 0, 7, []byte("gap")))            // sequence gap
	f.Add(frameBytes(1, ^uint64(0), -1, []byte("big")))  // absurd ack, negative tag
	f.Add(frameBytes(0, 0, 9, []byte("payload on ack"))) // ack with payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the stream below the reader's large-payload probe so a header
		// claiming gigabytes dies at the probe read, not at a huge Get.
		if len(data) > 48<<10 {
			data = data[:48<<10]
		}
		e, pc := fuzzReaderEndpoint()
		err := e.readFrames(1, pc, pc.gen, bufio.NewReader(bytes.NewReader(data)))
		if err == nil {
			t.Fatal("readFrames returned nil on a finite stream (must at least hit EOF)")
		}
	})
}

// FuzzResendReplay drives a real loopback pair through a fuzz-chosen
// schedule of mid-stream connection kills (frame index and byte offset of
// the cut both drawn from the corpus) and requires the receiver to observe
// the exact undisturbed delivery sequence: every frame once, in order,
// with its exact bytes — no loss, no duplicate delivery, no reordering —
// and a clean fabric close afterwards.
func FuzzResendReplay(f *testing.F) {
	f.Add([]byte{0, 25, 3})
	f.Add([]byte{90, 7, 200, 41})
	f.Add([]byte{1, 1, 1, 1, 1, 1})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, plan []byte) {
		const nFrames = 40
		const tag = 5
		if len(plan) > 12 {
			plan = plan[:12]
		}
		// Derive (frame index → cut offset) pairs; the reconnect budget is 8,
		// so cap the kills at 6 to keep exhaustion out of this property.
		drops := make(map[int]int)
		for i, b := range plan {
			if len(drops) >= 6 {
				break
			}
			drops[(int(b)*7+i*13)%nFrames] = int(b)
		}

		fab, err := NewLoopback(2)
		if err != nil {
			t.Fatal(err)
		}
		a := fab.Endpoint(0).(*Endpoint)
		b := fab.Endpoint(1).(*Endpoint)

		payload := func(i int) []byte {
			p := make([]byte, 48)
			for j := range p {
				p[j] = byte(i*31 + j)
			}
			return p
		}

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < nFrames; i++ {
				if after, ok := drops[i]; ok {
					a.DropConn(1, after)
				}
				a.Send(1, tag, payload(i))
			}
		}()

		for i := 0; i < nFrames; i++ {
			got := b.Recv(0, tag)
			if !bytes.Equal(got, payload(i)) {
				t.Fatalf("frame %d: delivery diverged from the undisturbed sequence (got % x)", i, got[:8])
			}
			b.Release(got)
		}
		wg.Wait()
		if err := fab.Close(); err != nil {
			t.Fatalf("close after replay: %v", err)
		}
	})
}
