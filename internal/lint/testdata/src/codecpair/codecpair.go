// Package codecpair holds fixtures for the codecpair analyzer:
// encode/decode pairing, field-width symmetry, field order, and length
// guards on fixed-offset decoders.
package codecpair

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"strconv"
)

// headerLen is the fixed frame header: seq(8).
const headerLen = 8

// encodePoint and decodePoint are a well-formed pair: same widths,
// guard covers every read.
func encodePoint(b []byte, x uint32, y uint64) []byte {
	b = binary.BigEndian.AppendUint32(b, x)
	b = binary.BigEndian.AppendUint64(b, y)
	return b
}

func decodePoint(b []byte) (uint32, uint64, bool) {
	if len(b) < 12 {
		return 0, 0, false
	}
	x := binary.BigEndian.Uint32(b[0:4])
	y := binary.BigEndian.Uint64(b[4:12])
	return x, y, true
}

// decodeStamp arrived without its encoder — the wire format's write
// side lives somewhere this analyzer cannot pair it with.
func decodeStamp(b []byte) uint64 { // want "decoder decodeStamp has no matching encoder"
	return binary.BigEndian.Uint64(b)
}

// encodeTrailer has no read side at all.
func encodeTrailer(b []byte, crc uint32) []byte { // want "encoder encodeTrailer has no matching decoder"
	return binary.BigEndian.AppendUint32(b, crc)
}

// encodeRecord writes seq(8) then crc(4); decodeRecord reads the crc as
// 16 bits — the classic drift after a field-width change lands on one
// side only.
func encodeRecord(b []byte, seq uint64, crc uint32) []byte {
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, crc)
	return b
}

func decodeRecord(b []byte) (seq uint64, crc uint32) { // want "codec pair encodeRecord/decodeRecord is asymmetric"
	if len(b) < 10 {
		return
	}
	seq = binary.BigEndian.Uint64(b[0:8])
	crc = uint32(binary.BigEndian.Uint16(b[8:10]))
	return
}

// encodeHello writes ver then id; decodeHello reads them in the
// opposite order. Both bodies are straight-line, so the order check
// applies.
func encodeHello(b []byte, ver uint16, id uint64) []byte {
	b = binary.BigEndian.AppendUint16(b, ver)
	b = binary.BigEndian.AppendUint64(b, id)
	return b
}

func decodeHello(b []byte) (uint16, uint64) { // want "reads fields in a different order"
	id := binary.BigEndian.Uint64(b[2:])
	ver := binary.BigEndian.Uint16(b[0:])
	return ver, id
}

// encodeFrame/decodeFrame have matching widths, but the decoder's guard
// only proves headerLen (8) bytes and then reads the kind field at
// [8:12] — a short frame from an older peer panics.
func encodeFrame(b []byte, seq uint64, kind uint32) []byte {
	b = binary.BigEndian.AppendUint64(b, seq)
	b = binary.BigEndian.AppendUint32(b, kind)
	return b
}

func decodeFrame(b []byte) (seq uint64, kind uint32, ok bool) {
	if len(b) < headerLen {
		return 0, 0, false
	}
	seq = binary.BigEndian.Uint64(b[0:8])
	kind = binary.BigEndian.Uint32(b[8:12]) // want "only len ≥ 8 is guaranteed"
	return seq, kind, true
}

// appendLabel and decodeLabel are a text codec, symmetric through the
// standard library: strconv and base64 appenders are building blocks,
// not sub-codecs, so neither side has any token to mismatch.
func appendLabel(b []byte, id uint64, name []byte) []byte {
	b = strconv.AppendUint(b, id, 10)
	b = append(b, ':')
	return base64.StdEncoding.AppendEncode(b, name)
}

func decodeLabel(b []byte) (uint64, []byte, error) {
	i := bytes.IndexByte(b, ':')
	if i < 0 {
		return 0, nil, errors.New("label without separator")
	}
	id, err := strconv.ParseUint(string(b[:i]), 10, 64)
	if err != nil {
		return 0, nil, err
	}
	name, err := base64.StdEncoding.AppendDecode(nil, b[i+1:])
	return id, name, err
}

// encodeBatch is a gathered encoder: a count, then the items as they
// lie, returned as the slices a writev sends back to back. A list of
// byte slices makes it a codec all the same, so decodeBatch reading the
// count as 16 bits is caught.
func encodeBatch(items [][]byte) [][]byte {
	head := binary.BigEndian.AppendUint32(nil, uint32(len(items)))
	return append([][]byte{head}, items...)
}

func decodeBatch(b []byte) (n uint16, items []byte) { // want "codec pair encodeBatch/decodeBatch is asymmetric"
	if len(b) < 2 {
		return 0, nil
	}
	return binary.BigEndian.Uint16(b[0:2]), b[2:]
}
