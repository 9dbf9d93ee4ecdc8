package mpi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ddr/internal/datatype"
	"ddr/internal/obs"
	"ddr/internal/trace"
)

// A 4-rank alltoallw over loopback TCP must leave behind (1) exact wire
// byte counters at both the payload and frame level, (2) the expected
// span population in the recorder, and (3) a Perfetto trace that
// round-trips through a JSON parser with consistent timestamps.
func TestTelemetryTCPAlltoallw(t *testing.T) {
	const (
		n       = 4
		msgSize = 64
	)
	reg := obs.NewRegistry()
	rec := trace.NewRecorder()

	// Frames that reach a rank before it attaches its telemetry would go
	// uncounted on that side, so every rank attaches before any sends.
	var attached sync.WaitGroup
	attached.Add(n)
	err := RunTCP(n, func(c *Comm) error {
		c.AttachTelemetry(NewTelemetry(reg, rec, c.Rank()))
		attached.Done()
		attached.Wait()
		sendTypes := make([]datatype.Type, n)
		recvTypes := make([]datatype.Type, n)
		for i := range sendTypes {
			if i == c.Rank() {
				sendTypes[i] = datatype.Empty{}
				recvTypes[i] = datatype.Empty{}
				continue
			}
			sendTypes[i] = datatype.Contiguous{Bytes: msgSize}
			recvTypes[i] = datatype.Contiguous{Bytes: msgSize}
		}
		sendBuf := make([]byte, msgSize)
		recvBuf := make([]byte, msgSize)
		if err := c.Alltoallw(sendBuf, sendTypes, recvBuf, recvTypes); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Payload-level counters: each rank sent and received (n-1)*msgSize
	// alltoallw bytes; the trailing barrier adds empty messages only.
	for r := 0; r < n; r++ {
		sent := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(r)).Value()
		recv := reg.Counter("mpi_wire_bytes_recv_total", "", obs.RankLabel(r)).Value()
		want := int64((n - 1) * msgSize)
		if sent != want || recv != want {
			t.Errorf("rank %d payload counters sent=%d recv=%d, want %d", r, sent, recv, want)
		}
		if pending := reg.Gauge("mpi_pending_messages", "", obs.RankLabel(r)).Value(); pending != 0 {
			t.Errorf("rank %d still has %d pending messages", r, pending)
		}
		if lat := reg.Histogram("mpi_alltoallw_latency_seconds", "", nil, obs.RankLabel(r)); lat.Count() != 1 {
			t.Errorf("rank %d alltoallw latency observations = %d, want 1", r, lat.Count())
		}
	}

	// Frame-level TCP counters include the 16-byte header per message.
	// The barrier's empty signals also cross the wire, so totals must be
	// at least the alltoallw share and out must equal in globally.
	var tcpOut, tcpIn int64
	for r := 0; r < n; r++ {
		tcpOut += reg.Counter("mpi_tcp_wire_bytes_out_total", "", obs.RankLabel(r)).Value()
		tcpIn += reg.Counter("mpi_tcp_wire_bytes_in_total", "", obs.RankLabel(r)).Value()
	}
	minA2AW := int64(n * (n - 1) * (msgSize + tcpFrameHeader))
	if tcpOut < minA2AW {
		t.Errorf("tcp frame bytes out = %d, want >= %d", tcpOut, minA2AW)
	}
	if tcpOut != tcpIn {
		t.Errorf("tcp frame bytes out=%d in=%d (should balance: every frame is read in full)", tcpOut, tcpIn)
	}

	// Span population: per rank one alltoallw span, n-1 pack and n-1
	// unpack spans.
	perRank := map[int]map[string]int{}
	for _, e := range rec.Events() {
		if perRank[e.Rank] == nil {
			perRank[e.Rank] = map[string]int{}
		}
		switch {
		case e.Name == "alltoallw":
			perRank[e.Rank]["coll"]++
		case strings.HasPrefix(e.Name, "a2aw-pack->"):
			perRank[e.Rank]["pack"]++
		case strings.HasPrefix(e.Name, "a2aw-unpack<-"):
			perRank[e.Rank]["unpack"]++
		}
	}
	for r := 0; r < n; r++ {
		got := perRank[r]
		if got["coll"] != 1 || got["pack"] != n-1 || got["unpack"] != n-1 {
			t.Errorf("rank %d spans %v, want coll=1 pack=%d unpack=%d", r, got, n-1, n-1)
		}
	}

	// Perfetto JSON round trip.
	var buf bytes.Buffer
	if err := obs.WriteTrace(&buf, rec); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
			Tid int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	lastTs := map[int]float64{}
	spans := 0
	for _, e := range parsed.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans++
		if e.Ts < 0 || e.Dur < 0 {
			t.Fatalf("negative ts/dur: %+v", e)
		}
		if e.Ts < lastTs[e.Tid] {
			t.Fatalf("rank %d timestamps not monotone in export", e.Tid)
		}
		lastTs[e.Tid] = e.Ts
	}
	if want := n * (1 + 2*(n-1)); spans != want {
		t.Errorf("exported %d spans, want %d", spans, want)
	}
}

// Telemetry attached on the world must follow Split-derived
// communicators, still attributed to the world rank.
func TestTelemetrySharedAcrossSplit(t *testing.T) {
	reg := obs.NewRegistry()
	err := Run(4, func(c *Comm) error {
		c.AttachTelemetry(NewTelemetry(reg, nil, c.Rank()))
		sub, err := c.Split(c.Rank()%2, c.Rank())
		if err != nil {
			return err
		}
		if sub.Telemetry() != c.Telemetry() {
			return fmt.Errorf("telemetry not propagated through Split")
		}
		// Split's own Allgather is counted too, so measure the delta of
		// this rank's counter across the sub-communicator send.
		own := reg.Counter("mpi_wire_bytes_sent_total", "", obs.RankLabel(c.Rank()))
		base := own.Value()
		if sub.Rank() == 0 {
			if err := sub.Send(1, 5, make([]byte, 10)); err != nil {
				return err
			}
			if got := own.Value() - base; got != 10 {
				return fmt.Errorf("rank %d counted %d bytes for a 10-byte sub-comm send", c.Rank(), got)
			}
			return nil
		}
		_, _, _, err = sub.Recv(0, 5)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Attaching no telemetry must keep the hot paths on the nil fast path.
func TestTelemetryNilAttach(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		c.AttachTelemetry(nil)
		if c.Rank() == 0 {
			return c.Send(1, 1, []byte("x"))
		}
		_, _, _, err := c.Recv(0, 1)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if tel := NewTelemetry(nil, nil, 0); tel != nil {
		t.Error("NewTelemetry(nil, nil) should be nil")
	}
}
