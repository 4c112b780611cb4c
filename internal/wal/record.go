package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// Record frame: [len uint32 LE][crc32c(payload) uint32 LE][payload]. The
// length bounds the payload, the CRC (Castagnoli polynomial) detects both
// torn tails and in-place corruption; a frame that fails either check stops
// the scan, and everything at or after it is discarded by recovery.

const (
	frameHeader = 8
	// MaxRecordSize is the largest payload a record may carry. The frame
	// parser rejects a length prefix above it before any allocation — a torn
	// or flipped length byte must not provoke a multi-GB make() — so Append
	// refuses a larger payload rather than acknowledge a record no scan could
	// read back.
	MaxRecordSize = 1 << 30
)

// ErrRecordTooLarge is what an append of a payload over MaxRecordSize
// returns. Nothing is written and the log stays appendable.
var ErrRecordTooLarge = errors.New("wal: record too large")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendFrameHeader appends the frame header of a payload of n bytes whose
// CRC is crc: its length and its CRC, little-endian.
func appendFrameHeader(dst []byte, n int, crc uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// parseFrame parses the frame at the start of b: its payload, which aliases
// b, and its size. ok is false when b does not open with a whole valid frame
// — too short for the header or for the length it claims, an absurd length,
// or a CRC mismatch. Scan and Tail both read frames through it.
func parseFrame(b []byte) (payload []byte, size int, ok bool) {
	if len(b) < frameHeader {
		return nil, 0, false
	}
	n := binary.LittleEndian.Uint32(b)
	if n > MaxRecordSize || int(n) > len(b)-frameHeader {
		return nil, 0, false
	}
	payload = b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, false
	}
	return payload, frameHeader + int(n), true
}

// parseFrames splits b into valid record payloads. It returns the payloads,
// the byte length of the valid prefix, and whether anything after that prefix
// was discarded (a torn tail or a corrupt frame). Payloads alias b.
func parseFrames(b []byte) (payloads [][]byte, cleanLen int, clean bool) {
	for cleanLen < len(b) {
		p, n, ok := parseFrame(b[cleanLen:])
		if !ok {
			return payloads, cleanLen, false
		}
		payloads = append(payloads, p)
		cleanLen += n
	}
	return payloads, cleanLen, true
}
