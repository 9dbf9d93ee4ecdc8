package mpi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"ddr/internal/obs"
)

// TestTCPSmallFrameStorm floods every peer pair with small tagged
// messages so the per-peer writers must coalesce: with 4 ranks each
// sending 64 frames to 3 peers through default queues, vectored batches
// are statistically guaranteed. Contents and per-tag identity are checked
// end to end.
func TestTCPSmallFrameStorm(t *testing.T) {
	const (
		n       = 4
		perPeer = 64
		size    = 96
	)
	err := RunTCP(n, func(c *Comm) error {
		rank := c.Rank()
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			for m := 0; m < perPeer; m++ {
				msg := make([]byte, size)
				for i := range msg {
					msg[i] = byte(rank ^ m ^ i)
				}
				if err := c.Send(peer, m, msg); err != nil {
					return err
				}
			}
		}
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			for m := 0; m < perPeer; m++ {
				data, from, tag, err := c.Recv(peer, m)
				if err != nil {
					return err
				}
				if from != peer || tag != m || len(data) != size {
					return fmt.Errorf("got %d bytes from %d tag %d, want %d from %d tag %d",
						len(data), from, tag, size, peer, m)
				}
				for i, b := range data {
					if b != byte(peer^m^i) {
						return fmt.Errorf("byte %d from rank %d tag %d corrupted", i, peer, m)
					}
				}
				PutBuffer(data)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPChunkedPayload pushes payloads across the chunk threshold (with
// a small threshold so the test stays fast) and checks byte-exact
// reassembly plus the chunk counters on both sides.
func TestTCPChunkedPayload(t *testing.T) {
	opts := TCPOptions{ChunkThreshold: 64 << 10, ChunkSize: 16 << 10}
	sizes := []int{64<<10 + 1, 200 << 10, 1 << 20}
	err := RunTCPOpts(2, opts, func(c *Comm) error {
		if c.Rank() == 0 {
			for i, size := range sizes {
				msg := make([]byte, size)
				for j := range msg {
					msg[j] = byte(j*7 + i)
				}
				if err := c.Send(1, i, msg); err != nil {
					return err
				}
			}
			_, _, _, err := c.Recv(1, 99)
			return err
		}
		for i, size := range sizes {
			data, _, _, err := c.Recv(0, i)
			if err != nil {
				return err
			}
			if len(data) != size {
				return fmt.Errorf("message %d: got %d bytes, want %d", i, len(data), size)
			}
			for j, b := range data {
				if b != byte(j*7+i) {
					return fmt.Errorf("message %d corrupted at byte %d", i, j)
				}
			}
			PutBuffer(data)
		}
		return c.Send(0, 99, []byte{1})
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPChunkOrdering verifies MPI non-overtaking across the chunk
// boundary: a large (chunked) message followed by a small one on the SAME
// tag must be received in send order, even though the small frame
// physically arrives while the big one is still streaming.
func TestTCPChunkOrdering(t *testing.T) {
	opts := TCPOptions{ChunkThreshold: 32 << 10, ChunkSize: 4 << 10}
	big := 512 << 10
	err := RunTCPOpts(2, opts, func(c *Comm) error {
		const tag = 5
		if c.Rank() == 0 {
			msg := make([]byte, big)
			for i := range msg {
				msg[i] = byte(i)
			}
			if err := c.Send(1, tag, msg); err != nil {
				return err
			}
			// Same tag, tiny: its single frame interleaves with the big
			// message's chunk stream on the wire.
			return c.Send(1, tag, []byte("after"))
		}
		first, _, _, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		if len(first) != big {
			return fmt.Errorf("small message overtook chunked one: first Recv got %d bytes", len(first))
		}
		for i, b := range first {
			if b != byte(i) {
				return fmt.Errorf("chunked payload corrupted at byte %d", i)
			}
		}
		PutBuffer(first)
		second, _, _, err := c.Recv(0, tag)
		if err != nil {
			return err
		}
		if string(second) != "after" {
			return fmt.Errorf("second Recv got %q", second)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPInterleavedChunkStreams has every rank stream a large payload to
// every other rank while peppering the same connections with small
// control messages — multiple chunk streams reassembling concurrently per
// read loop, interleaved with whole frames.
func TestTCPInterleavedChunkStreams(t *testing.T) {
	const (
		n     = 4
		big   = 256 << 10
		small = 32
	)
	opts := TCPOptions{ChunkThreshold: 16 << 10, ChunkSize: 8 << 10}
	err := RunTCPOpts(n, opts, func(c *Comm) error {
		rank := c.Rank()
		var wg sync.WaitGroup
		sendErr := make([]error, n)
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			wg.Add(1)
			go func(peer int) {
				defer wg.Done()
				msg := make([]byte, big)
				for i := range msg {
					msg[i] = byte(i * (rank + 1))
				}
				if err := c.Send(peer, 0, msg); err != nil {
					sendErr[peer] = err
					return
				}
				for k := 0; k < 8; k++ {
					if err := c.Send(peer, 1, bytes.Repeat([]byte{byte(k)}, small)); err != nil {
						sendErr[peer] = err
						return
					}
				}
			}(peer)
		}
		for peer := 0; peer < n; peer++ {
			if peer == rank {
				continue
			}
			data, _, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			if len(data) != big {
				return fmt.Errorf("from %d: got %d bytes, want %d", peer, len(data), big)
			}
			for i, b := range data {
				if b != byte(i*(peer+1)) {
					return fmt.Errorf("stream from %d corrupted at %d", peer, i)
				}
			}
			PutBuffer(data)
			for k := 0; k < 8; k++ {
				got, _, _, err := c.Recv(peer, 1)
				if err != nil {
					return err
				}
				if len(got) != small || got[0] != byte(k) {
					return fmt.Errorf("control %d from %d corrupted", k, peer)
				}
				PutBuffer(got)
			}
		}
		wg.Wait()
		for _, err := range sendErr {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTCPCloseMidStream closes an endpoint while a chunked send is still
// streaming. The contract is orderly shutdown: Close flushes what it can,
// force-closes the rest within its timeout, and nothing hangs or panics.
func TestTCPCloseMidStream(t *testing.T) {
	opts := TCPOptions{ChunkThreshold: 4 << 10, ChunkSize: 1 << 10}
	a, err := NewTCPEndpoint("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{a.Addr(), b.Addr()}
	ca, err := a.Join(0, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Join(1, addrs)
	if err != nil {
		t.Fatal(err)
	}
	// Start a receiver that will be cut off mid-stream.
	recvDone := make(chan error, 1)
	go func() {
		for {
			data, _, _, err := cb.Recv(0, AnySource)
			if err != nil {
				recvDone <- nil // closed mailbox is the expected exit
				return
			}
			PutBuffer(data)
		}
	}()
	for i := 0; i < 16; i++ {
		if err := ca.Send(1, 3, make([]byte, 64<<10)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close a: %v", err)
	}
	// Sends after Close fail cleanly rather than wedging.
	if err := ca.Send(1, 3, []byte("x")); err == nil {
		t.Fatal("send after Close succeeded")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close b: %v", err)
	}
	<-recvDone
}

// TestTCPInboundConnTracking exercises the Close path for accepted
// connections: an endpoint that only ever received (never dialed) must
// still tear down its read-loop connections on Close.
func TestTCPInboundConnTracking(t *testing.T) {
	a, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPEndpoint("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{a.Addr(), b.Addr()}
	ca, _ := a.Join(0, addrs)
	cb, _ := b.Join(1, addrs)
	if err := ca.Send(1, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if data, _, _, err := cb.Recv(0, 0); err != nil || string(data) != "hello" {
		t.Fatalf("recv: %q %v", data, err)
	}
	// b has one inbound connection (from a) and zero dialed peers.
	b.mu.Lock()
	inbound, peers := len(b.inbound), len(b.peers)
	b.mu.Unlock()
	if inbound != 1 || peers != 0 {
		t.Fatalf("endpoint b tracks %d inbound / %d peers, want 1 / 0", inbound, peers)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	b.mu.Lock()
	inbound = len(b.inbound)
	b.mu.Unlock()
	if inbound != 0 {
		t.Fatalf("%d inbound connections still tracked after Close", inbound)
	}
	a.Close()
}

// TestTCPBackpressureWarning drives a peer's send queue to saturation and
// checks that the event is counted and warned about exactly once.
func TestTCPBackpressureWarning(t *testing.T) {
	var logbuf bytes.Buffer
	prev := obs.SetWarnOutput(&logbuf)
	defer obs.SetWarnOutput(prev)

	opts := TCPOptions{SendQueueLen: 2, WriteBatch: 2}
	var stats TCPStats
	err := RunTCPOpts(2, opts, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 512; i++ {
				if err := c.Send(1, 0, make([]byte, 4096)); err != nil {
					return err
				}
			}
			if tt, ok := c.tr.(*tcpTransport); ok {
				stats = tt.ep.Stats()
			}
			return nil
		}
		for i := 0; i < 512; i++ {
			data, _, _, err := c.Recv(0, 0)
			if err != nil {
				return err
			}
			PutBuffer(data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BackpressureEvents == 0 {
		t.Fatal("512 sends through a 2-deep queue never hit backpressure")
	}
	out := logbuf.String()
	if !strings.Contains(out, "saturated") {
		t.Fatalf("no saturation warning emitted; log: %q", out)
	}
	if strings.Count(out, "saturated") != 1 {
		t.Fatalf("saturation warned more than once per peer:\n%s", out)
	}
}

// TestTCPFrameTooLarge checks the single-frame wire-format guard that
// remains when chunked streaming is disabled: a payload whose length
// cannot be expressed in the header's u32 field is rejected with a typed
// error instead of being silently truncated on the wire.
func TestTCPFrameTooLarge(t *testing.T) {
	noChunk := TCPOptions{ChunkThreshold: -1}.resolve()
	chunked := TCPOptions{}.resolve()
	over := int(maxSingleFrame) + 1
	if err := checkFrameSize(over, &noChunk); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
	if err := checkFrameSize(over, &chunked); err != nil {
		t.Fatalf("chunked path rejected a large message: %v", err)
	}
	if err := checkFrameSize(4096, &noChunk); err != nil {
		t.Fatalf("small frame rejected: %v", err)
	}
}

// TestTCPStatsCoalescing asserts the writer actually vectors multiple
// frames per write under bursty load.
func TestTCPStatsCoalescing(t *testing.T) {
	var stats TCPStats
	err := RunTCP(2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 256; i++ {
				if err := c.Send(1, i, []byte("burst")); err != nil {
					return err
				}
			}
			// Wait for the receiver's ack so every queued frame has been
			// written before the counters are read.
			if _, _, _, err := c.Recv(1, 0); err != nil {
				return err
			}
			tt, ok := c.tr.(*tcpTransport)
			if !ok {
				return nil
			}
			// The writer counts a batch after its WriteTo returns, so the
			// receiver's ack can overtake the count of the last batch:
			// poll until every frame is accounted for.
			deadline := time.Now().Add(5 * time.Second)
			for stats = tt.ep.Stats(); stats.FramesOut < 256 && time.Now().Before(deadline); stats = tt.ep.Stats() {
				time.Sleep(time.Millisecond)
			}
			return nil
		}
		for i := 0; i < 256; i++ {
			if _, _, _, err := c.Recv(0, i); err != nil {
				return err
			}
		}
		return c.Send(0, 0, []byte{1})
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FramesOut != 256 {
		t.Fatalf("FramesOut = %d, want 256", stats.FramesOut)
	}
	if stats.Batches >= stats.FramesOut {
		t.Fatalf("no coalescing: %d batches for %d frames", stats.Batches, stats.FramesOut)
	}
	if stats.FramesCoalesced == 0 {
		t.Fatal("FramesCoalesced = 0 under a 256-frame burst")
	}
	if stats.SendQueueDepth != 0 {
		t.Fatalf("SendQueueDepth = %d after drain, want 0", stats.SendQueueDepth)
	}
}

// recycleSink implements chunkSink for decoder-level tests, recycling
// payloads immediately so the arena round-trips.
type recycleSink struct {
	msgs      int
	completed int
	last      envelope
}

func (s *recycleSink) put(e envelope) {
	s.msgs++
	s.last = e
	if e.pend == nil {
		PutBuffer(e.data)
	}
}

func (s *recycleSink) complete(p *chunkPending) {
	s.completed++
	PutBuffer(s.last.data)
}

func (s *recycleSink) removePending(p *chunkPending) {
	PutBuffer(s.last.data)
}

// buildMsgFrame assembles a frameMsg wire image for decoder tests.
func buildMsgFrame(ctx uint32, src int, tag int, payload []byte) []byte {
	f := make([]byte, tcpFrameHeader+len(payload))
	f[0] = frameMsg
	binary.LittleEndian.PutUint32(f[4:], ctx)
	binary.LittleEndian.PutUint32(f[8:], uint32(src))
	binary.LittleEndian.PutUint32(f[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(f[16:], uint32(len(payload)))
	copy(f[tcpFrameHeader:], payload)
	return f
}

// buildChunkFrame assembles a frameChunk wire image for decoder tests.
func buildChunkFrame(ctx uint32, src, tag int, stream uint32, total uint64, payload []byte) []byte {
	f := make([]byte, tcpFrameHeader+tcpChunkExt+len(payload))
	f[0] = frameChunk
	binary.LittleEndian.PutUint32(f[4:], ctx)
	binary.LittleEndian.PutUint32(f[8:], uint32(src))
	binary.LittleEndian.PutUint32(f[12:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(f[16:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(f[tcpFrameHeader:], stream)
	binary.LittleEndian.PutUint64(f[tcpFrameHeader+8:], total)
	copy(f[tcpFrameHeader+tcpChunkExt:], payload)
	return f
}

// TestTCPReceiveSteadyStateAlloc is the transport twin of core's
// TestZeroAllocSteadyState: once the arena is warm, decoding a whole
// frame draws its payload buffer from the pool and performs zero heap
// allocations per frame.
func TestTCPReceiveSteadyStateAlloc(t *testing.T) {
	const size = 8192
	frame := buildMsgFrame(0, 1, 7, make([]byte, size))
	sink := &recycleSink{}
	dec := newFrameDecoder(sink, maxSingleFrame, maxChunkTotal, maxInboundChunks)
	r := bytes.NewReader(nil)
	// Warm the arena class.
	for i := 0; i < 3; i++ {
		r.Reset(frame)
		if _, _, err := dec.readFrame(r); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(frame)
		if _, _, err := dec.readFrame(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame decode allocates %.1f objects/frame, want 0", allocs)
	}
}

// TestTCPDecoderProtocolErrors feeds the decoder malformed frames and
// checks each is rejected with errTCPProto rather than a hang or panic.
func TestTCPDecoderProtocolErrors(t *testing.T) {
	cases := []struct {
		name  string
		frame []byte
	}{
		{"unknown type", func() []byte {
			f := buildMsgFrame(0, 0, 0, nil)
			f[0] = 99
			return f
		}()},
		{"zero total chunk", buildChunkFrame(0, 0, 0, 1, 0, nil)},
		{"oversize total chunk", buildChunkFrame(0, 0, 0, 1, 1<<40, nil)},
		{"chunk overflow", func() []byte {
			a := buildChunkFrame(0, 0, 0, 1, 8, make([]byte, 6))
			b := buildChunkFrame(0, 0, 0, 1, 8, make([]byte, 6))
			return append(a, b...)
		}()},
		{"stream identity change", func() []byte {
			a := buildChunkFrame(0, 0, 0, 1, 64, make([]byte, 6))
			b := buildChunkFrame(0, 0, 9, 1, 64, make([]byte, 6))
			return append(a, b...)
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dec := newFrameDecoder(&recycleSink{}, maxSingleFrame, maxChunkTotal, 4)
			r := bytes.NewReader(tc.frame)
			var err error
			for err == nil && r.Len() > 0 {
				_, _, err = dec.readFrame(r)
			}
			if err == nil || !strings.Contains(err.Error(), "protocol error") {
				t.Fatalf("got %v, want wrapped errTCPProto", err)
			}
		})
	}
}
