package wal

import (
	"encoding/binary"
	"hash/crc32"
)

// Record frame: [len uint32 LE][crc32c(payload) uint32 LE][payload]. The
// length bounds the payload, the CRC (Castagnoli polynomial) detects both
// torn tails and in-place corruption; a frame that fails either check stops
// the scan, and everything at or after it is discarded by recovery.

const (
	frameHeader = 8
	// maxRecordSize rejects absurd length prefixes before any allocation —
	// a torn or flipped length byte must not provoke a multi-GB make().
	maxRecordSize = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putFrameHeader writes the frame header of payload into hdr: its length and
// its CRC, little-endian.
func putFrameHeader(hdr *[frameHeader]byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
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
	if n > maxRecordSize || int(n) > len(b)-frameHeader {
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
