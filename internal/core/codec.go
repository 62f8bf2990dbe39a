package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// This file is the wire codec of the inference service (§4): fixed-size
// little-endian values,
//
//	request:  [reqID uint64][n uint32][n × float64 state]
//	response: [reqID uint64][action float64]
//
// It lives here, next to the Service whose inputs and outputs it encodes,
// and does no I/O. internal/serve carries these payloads bare in datagrams
// and inside length-prefixed frames on its stream transports; a served
// response may append a trailer after the 16 codec bytes, which
// DecodeResponse ignores, so base-codec decoders stay interoperable.

// MaxStateDim bounds the accepted request size (defensive: a datagram
// declaring a huge n must not cause a huge allocation).
const MaxStateDim = 4096

// RequestSize returns the encoded size of a request carrying dim features.
func RequestSize(dim int) int { return 12 + 8*dim }

// AppendRequest appends the encoded request to dst and returns the extended
// slice, so reusable buffers encode without allocating.
func AppendRequest(dst []byte, reqID uint64, state []float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(state)))
	for _, v := range state {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeRequestInto parses a request datagram or frame payload. The
// decoded state appends into dst (typically a recycled slice trimmed to
// length 0), so a steady-state reader allocates nothing once the buffer has
// grown to the request width. Bytes past the encoded request are ignored,
// which is how the serve-layer flow-ID trailer stays transparent here.
func DecodeRequestInto(buf []byte, dst []float64) (reqID uint64, state []float64, err error) {
	if len(buf) < 12 {
		return 0, nil, fmt.Errorf("core: request too short (%d bytes)", len(buf))
	}
	reqID = binary.LittleEndian.Uint64(buf[0:8])
	n := binary.LittleEndian.Uint32(buf[8:12])
	if n > MaxStateDim {
		return 0, nil, fmt.Errorf("core: state dim %d exceeds limit", n)
	}
	if len(buf) < 12+int(n)*8 {
		return 0, nil, fmt.Errorf("core: truncated request: %d bytes for dim %d", len(buf), n)
	}
	state = dst
	for i := 0; i < int(n); i++ {
		state = append(state, math.Float64frombits(binary.LittleEndian.Uint64(buf[12+8*i:])))
	}
	return reqID, state, nil
}

// ResponseSize is the encoded size of a response.
const ResponseSize = 16

// EncodeResponse serializes an inference response.
func EncodeResponse(reqID uint64, action float64) []byte {
	return AppendResponse(make([]byte, 0, ResponseSize), reqID, action)
}

// AppendResponse appends the encoded response to dst and returns the
// extended slice.
func AppendResponse(dst []byte, reqID uint64, action float64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, reqID)
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(action))
}

// DecodeResponse parses a response. Bytes past the first 16 are ignored, so
// the serve-layer trailer (flags, policy version) is transparent to clients
// that only understand the base codec.
func DecodeResponse(buf []byte) (reqID uint64, action float64, err error) {
	if len(buf) < ResponseSize {
		return 0, 0, fmt.Errorf("core: response too short (%d bytes)", len(buf))
	}
	return binary.LittleEndian.Uint64(buf[0:8]),
		math.Float64frombits(binary.LittleEndian.Uint64(buf[8:16])), nil
}
