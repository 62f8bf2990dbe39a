// Package serve is the production serving layer between a trained Astraea
// policy and sender traffic: a network-facing inference server that fans
// many client connections into the shared batching core.Service, with
// per-request deadlines, admission control with explicit shedding, a
// deterministic in-band fallback action, hot policy reload, and graceful
// drain. It is the deployment rendering of the shared inference service of
// §4 — the architectural property Fig. 16b measures — hardened the way
// deployment-oriented RL-CC systems require: a sender always receives a
// safe answer within a bounded time, whatever the model is doing.
package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// Stream transports (TCP, unix) carry the core wire codec inside
// length-prefixed frames:
//
//	frame:    [len uint32][payload]
//	request:  payload = core request codec  (reqID, state)
//	          + optional trailer [flowID uint64]
//	response: payload = core response codec (reqID, action)
//	          + trailer [flags uint32][version uint32]
//
// The response trailer is how the fallback answer travels in-band: a sender
// that understands it learns whether the action came from the live policy
// or the fallback law (and which policy version answered); a sender that
// only speaks the base codec still gets a usable action, because
// core.DecodeResponse ignores trailing bytes. Datagram transports (udp,
// unixgram) carry the same payloads bare, one per datagram, without the
// frame prefix.
//
// The request trailer carries the flow identity for sharded admission: all
// requests tagged with one flow ID hash to one shard and are answered in
// order, whichever connection they arrive on. An untagged request inherits
// a per-connection flow identity, so plain senders (one flow per socket)
// keep strict ordering too. core.DecodeRequestInto ignores trailing bytes,
// so tagged requests remain readable by base-codec decoders.

// Response flag bits.
const (
	// FlagFallback marks an action computed by the deterministic fallback
	// law rather than the served policy.
	FlagFallback uint32 = 1 << iota
	// FlagShed marks a request rejected at admission (queue full).
	FlagShed
	// FlagDeadline marks a request whose deadline expired before the
	// policy answered.
	FlagDeadline
)

// Result is one served answer as seen by a serve.Client.
type Result struct {
	Action  float64
	Flags   uint32
	Version uint32 // policy version that stamped the response
}

// Fallback reports whether the action came from the fallback law.
func (r Result) Fallback() bool { return r.Flags&FlagFallback != 0 }

// Shed reports whether the request was rejected at admission.
func (r Result) Shed() bool { return r.Flags&FlagShed != 0 }

// DeadlineMissed reports whether the request ran out of budget before the
// policy answered.
func (r Result) DeadlineMissed() bool { return r.Flags&FlagDeadline != 0 }

// servedResponseSize is the response payload size: base codec + trailer.
const servedResponseSize = core.ResponseSize + 8

// flowTrailerSize is the optional request trailer carrying the flow ID.
const flowTrailerSize = 8

// maxFramePayload bounds what either side will read in one frame: the
// largest request the core codec admits plus the flow trailer (responses
// are far smaller).
const maxFramePayload = 12 + 8*core.MaxStateDim + flowTrailerSize

// appendServedResponse appends a response payload (base codec + serve
// trailer) to dst — the allocation-free form for reusable write arenas.
func appendServedResponse(dst []byte, reqID uint64, action float64, flags, version uint32) []byte {
	dst = core.AppendResponse(dst, reqID, action)
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return binary.LittleEndian.AppendUint32(dst, version)
}

// appendServedFrame appends one framed response to dst: length prefix, base
// codec, trailer — a single append chain into a per-connection arena.
func appendServedFrame(dst []byte, reqID uint64, action float64, flags, version uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, servedResponseSize)
	return appendServedResponse(dst, reqID, action, flags, version)
}

// requestFlow extracts the flow-ID trailer from a request payload whose
// core-codec portion decoded to dim state features. ok is false when the
// request carries no trailer.
func requestFlow(payload []byte, dim int) (flow uint64, ok bool) {
	base := core.RequestSize(dim)
	if len(payload) < base+flowTrailerSize {
		return 0, false
	}
	return binary.LittleEndian.Uint64(payload[base:]), true
}

// appendFlowRequest appends a framed, flow-tagged request to dst: length
// prefix, core request codec, flow trailer.
func appendFlowRequest(dst []byte, reqID uint64, state []float64, flow uint64, tagged bool) []byte {
	n := core.RequestSize(len(state))
	if tagged {
		n += flowTrailerSize
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = core.AppendRequest(dst, reqID, state)
	if tagged {
		dst = binary.LittleEndian.AppendUint64(dst, flow)
	}
	return dst
}

// decodeServedResponse parses a response payload. The trailer is optional
// (a plain core responder yields zero flags and version 0).
func decodeServedResponse(buf []byte) (reqID uint64, res Result, err error) {
	reqID, action, err := core.DecodeResponse(buf)
	if err != nil {
		return 0, Result{}, err
	}
	res = Result{Action: action}
	if len(buf) >= servedResponseSize {
		res.Flags = binary.LittleEndian.Uint32(buf[core.ResponseSize:])
		res.Version = binary.LittleEndian.Uint32(buf[core.ResponseSize+4:])
	}
	return reqID, res, nil
}

// appendFrame appends the length prefix and payload to dst, returning the
// extended slice: one buffer, one Write, so concurrent writers interleave
// whole frames, never bytes.
func appendFrame(dst, payload []byte) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// writeFrame writes one framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, 4+len(payload)), payload))
	return err
}

// readFrame reads one frame payload. A frame longer than maxFramePayload is
// an error (the stream is still positioned at a frame boundary afterwards
// only if the caller discards the oversized body; see discardFrame).
func readFrame(r *bufio.Reader) ([]byte, error) {
	var scratch []byte
	return readFrameInto(r, &scratch)
}

// readFrameInto is readFrame with a caller-owned reusable buffer: the
// payload is read into *buf (grown as needed and written back), so a
// steady-state connection loop performs zero allocations per frame. The
// returned slice aliases *buf and is valid until the next call.
func readFrameInto(r *bufio.Reader, buf *[]byte) ([]byte, error) {
	// The header is read through *buf too: a stack array passed to
	// io.ReadFull escapes and costs an allocation per frame.
	if cap(*buf) < 4 {
		*buf = make([]byte, 4, 512)
	}
	hdr := (*buf)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFramePayload {
		return nil, errFrameTooLarge(n)
	}
	if cap(*buf) < int(n) {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

type errFrameTooLarge uint32

func (e errFrameTooLarge) Error() string {
	return fmt.Sprintf("serve: frame of %d bytes exceeds limit %d", uint32(e), maxFramePayload)
}

// discardFrame skips n payload bytes so the stream stays frame-aligned
// after an oversized frame was announced.
func discardFrame(r *bufio.Reader, n uint32) error {
	_, err := io.CopyN(io.Discard, r, int64(n))
	return err
}
