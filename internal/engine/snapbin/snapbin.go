// Package snapbin is the binary snapshot codec for compiled engines: it
// serializes an engine's arena form (engine.Arenas) into a versioned,
// checksummed, length-prefixed byte stream and decodes one back with
// near-zero parsing — numeric columns are read in bulk and every string
// is a zero-copy window into the input buffer, so loading a snapshot
// costs milliseconds where re-compiling the raw lists costs tens.
//
// Frame layout (all integers little-endian):
//
//	[8]  magic "AASNAPBN"
//	[4]  format version (FormatVersion)
//	[4]  reserved (zero) — pads the payload to an 8-byte frame offset
//	[8]  payload length
//	[..] payload (the arena columns)
//	[4]  CRC-32C (Castagnoli) of the payload
//
// Numeric columns inside the payload are padded to their element size
// (relative to the payload start), so when the input buffer itself is
// 8-byte aligned and the host is little-endian the decoder views them
// in place — no allocation, no byte-swizzling loop. Misaligned buffers
// and big-endian hosts transparently fall back to copying reads.
//
// The checksum is verified before any payload byte is interpreted, and
// the payload parser bounds-checks every read, so truncated, bit-flipped
// or version-skewed input yields an error — never a panic, never a
// half-built engine (engine.FromArenas re-validates the decoded columns
// as a whole before constructing anything).
//
// Decode retains the input buffer: the returned engine's strings alias
// it. Callers must not modify the buffer afterwards.
package snapbin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"acceptableads/internal/engine"
	"acceptableads/internal/strtab"
)

// FormatVersion is the snapshot format this build writes and the only
// one it reads. Any layout change must bump it; decoders seeing another
// version return ErrVersion and the caller falls back to the raw lists.
const FormatVersion = 1

var magic = [8]byte{'A', 'A', 'S', 'N', 'A', 'P', 'B', 'N'}

// Sentinel decode errors, distinguishable so the warm-start path can log
// why it fell back to recompilation.
var (
	// ErrMagic means the input is not a snapshot at all.
	ErrMagic = errors.New("snapbin: bad magic")
	// ErrVersion means the snapshot was written by another format
	// version.
	ErrVersion = errors.New("snapbin: format version mismatch")
	// ErrChecksum means the payload failed CRC verification.
	ErrChecksum = errors.New("snapbin: checksum mismatch")
	// ErrTruncated means the input ended mid-structure.
	ErrTruncated = errors.New("snapbin: truncated input")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

const headerLen = 8 + 4 + 4 + 8 // magic + version + reserved + payload length

// hostLE reports whether this host is little-endian — the precondition
// (with buffer alignment) for viewing numeric columns in place.
var hostLE = binary.NativeEndian.Uint16([]byte{0x34, 0x12}) == 0x1234

// Encode serializes the engine's compiled form. A dry run of the layout
// sizes the frame first, so the payload is written once, in place, into
// a buffer of exactly the frame's size: a service reload encodes on
// every publish, and growing a buffer would cost several times the
// frame in garbage.
func Encode(e *engine.Engine) ([]byte, error) {
	a := e.ToArenas()
	size := writer{dry: true}
	size.arenas(a)
	w := writer{buf: make([]byte, 0, headerLen+size.n+4)}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, FormatVersion)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0) // reserved
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(size.n))
	w.arenas(a)
	return binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf[headerLen:], castagnoli)), nil
}

// arenas lays out the payload.
func (w *writer) arenas(a *engine.Arenas) {
	w.u8(b2u(a.NoFingerprint))
	w.u8(b2u(a.NoHostIndex))
	w.u32(uint32(len(a.Lists)))
	for _, l := range a.Lists {
		w.str(l.Name)
		w.u64(uint64(l.Filters))
	}
	w.u32(uint32(len(a.Profiles)))
	for _, p := range a.Profiles {
		w.str(p.Name)
		w.u64(p.Mask)
	}
	n := a.Raw.Len()
	w.u32(uint32(n))
	w.bytes(a.Kind)
	w.bytes(a.Flags)
	w.bytes(a.Tri)
	w.u32s(a.TypeMask)
	w.i32s(a.Line)
	w.bytes(a.ListIdx)
	w.u64s(a.KwHash)
	w.u64s(a.GateWord)
	w.col(&a.Raw)
	w.col(&a.Pattern)
	w.col(&a.Selector)
	w.col(&a.HostKey)
	w.u32s(a.SegOff)
	w.strs(a.Segments)
	w.u32s(a.DomOff)
	w.col(&a.Domains)
	w.bools(a.DomNeg)
	w.u32s(a.KeyOff)
	w.strs(a.Sitekeys)

	// Compiled-selector arena (see css.Arena).
	w.col(&a.Css.Raw)
	w.u32s(a.Css.SelOff)
	w.u32s(a.Css.GrpOff)
	w.bytes(a.Css.Comb)
	w.col(&a.Css.Tag)
	w.col(&a.Css.ID)
	w.u32s(a.Css.ClsOff)
	w.strs(a.Css.Classes)
	w.u32s(a.Css.AttrOff)
	w.col(&a.Css.AttrName)
	w.bytes(a.Css.AttrOp)
	w.col(&a.Css.AttrVal)

	// Frozen request-index layout.
	w.bytes(a.BktKind)
	w.u64s(a.BktHash)
	w.col(&a.BktHost)
	w.u32s(a.BktOffs)
	w.u32s(a.IdxIds)
	w.u32s(a.SlowOffs)
	w.u32s(a.SlowIds)
}

// Decode verifies the frame and rebuilds the engine. The returned engine
// aliases buf (zero-copy strings); buf must not be modified afterwards.
func Decode(buf []byte) (*engine.Engine, error) {
	if len(buf) < headerLen+4 {
		return nil, ErrTruncated
	}
	if [8]byte(buf[:8]) != magic {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("%w: snapshot v%d, decoder v%d", ErrVersion, v, FormatVersion)
	}
	plen := binary.LittleEndian.Uint64(buf[16:24])
	if plen != uint64(len(buf)-headerLen-4) {
		return nil, fmt.Errorf("%w: payload length %d, frame carries %d", ErrTruncated, plen, len(buf)-headerLen-4)
	}
	payload := buf[headerLen : headerLen+int(plen)]
	sum := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, ErrChecksum
	}

	r := reader{buf: payload}
	r.zc = hostLE && len(payload) > 0 && uintptr(unsafe.Pointer(&payload[0]))%8 == 0
	var a engine.Arenas
	var err error
	noFP, err1 := r.u8()
	noHost, err2 := r.u8()
	if err = errors.Join(err1, err2); err != nil {
		return nil, err
	}
	a.NoFingerprint, a.NoHostIndex = noFP != 0, noHost != 0
	nLists, err := r.count(16) // name(u32-prefixed) + u64 count ≥ 12 bytes, be lax
	if err != nil {
		return nil, err
	}
	for i := 0; i < nLists; i++ {
		name, err1 := r.str()
		cnt, err2 := r.u64()
		if err = errors.Join(err1, err2); err != nil {
			return nil, err
		}
		if cnt > math.MaxInt32 {
			return nil, fmt.Errorf("snapbin: list %q declares %d filters", name, cnt)
		}
		a.Lists = append(a.Lists, engine.ArenaList{Name: name, Filters: int(cnt)})
	}
	nProf, err := r.count(12)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nProf; i++ {
		name, err1 := r.str()
		mask, err2 := r.u64()
		if err = errors.Join(err1, err2); err != nil {
			return nil, err
		}
		a.Profiles = append(a.Profiles, engine.ArenaProfile{Name: name, Mask: mask})
	}
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if a.Kind, err = r.bytes(n); err != nil {
		return nil, err
	}
	if a.Flags, err = r.bytes(n); err != nil {
		return nil, err
	}
	if a.Tri, err = r.bytes(n); err != nil {
		return nil, err
	}
	if a.TypeMask, err = r.u32s(n); err != nil {
		return nil, err
	}
	if a.Line, err = r.i32s(n); err != nil {
		return nil, err
	}
	if a.ListIdx, err = r.bytes(n); err != nil {
		return nil, err
	}
	if a.KwHash, err = r.u64s(n); err != nil {
		return nil, err
	}
	if a.GateWord, err = r.u64s(n); err != nil {
		return nil, err
	}
	if a.Raw, err = r.col(); err != nil {
		return nil, err
	}
	if a.Pattern, err = r.col(); err != nil {
		return nil, err
	}
	if a.Selector, err = r.col(); err != nil {
		return nil, err
	}
	if a.HostKey, err = r.col(); err != nil {
		return nil, err
	}
	if a.SegOff, err = r.u32s(n + 1); err != nil {
		return nil, err
	}
	if a.Segments, err = r.strs(); err != nil {
		return nil, err
	}
	if a.DomOff, err = r.u32s(n + 1); err != nil {
		return nil, err
	}
	if a.Domains, err = r.col(); err != nil {
		return nil, err
	}
	if a.DomNeg, err = r.bools(a.Domains.Len()); err != nil {
		return nil, err
	}
	if a.KeyOff, err = r.u32s(n + 1); err != nil {
		return nil, err
	}
	if a.Sitekeys, err = r.strs(); err != nil {
		return nil, err
	}
	if a.Css.Raw, err = r.col(); err != nil {
		return nil, err
	}
	if a.Css.SelOff, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.Css.GrpOff, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.Css.Comb, err = r.bytesAny(); err != nil {
		return nil, err
	}
	if a.Css.Tag, err = r.col(); err != nil {
		return nil, err
	}
	if a.Css.ID, err = r.col(); err != nil {
		return nil, err
	}
	if a.Css.ClsOff, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.Css.Classes, err = r.strs(); err != nil {
		return nil, err
	}
	if a.Css.AttrOff, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.Css.AttrName, err = r.col(); err != nil {
		return nil, err
	}
	if a.Css.AttrOp, err = r.bytesAny(); err != nil {
		return nil, err
	}
	if a.Css.AttrVal, err = r.col(); err != nil {
		return nil, err
	}
	if a.BktKind, err = r.bytesAny(); err != nil {
		return nil, err
	}
	if a.BktHash, err = r.u64sAny(); err != nil {
		return nil, err
	}
	if a.BktHost, err = r.col(); err != nil {
		return nil, err
	}
	if a.BktOffs, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.IdxIds, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.SlowOffs, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if a.SlowIds, err = r.u32sAny(); err != nil {
		return nil, err
	}
	if r.off != len(r.buf) {
		return nil, fmt.Errorf("snapbin: %d trailing payload bytes", len(r.buf)-r.off)
	}
	return engine.FromArenas(&a)
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// writer lays out the payload after the frame header in buf. A dry
// writer stores nothing: it only counts in n the bytes it would write.
type writer struct {
	buf []byte
	n   int // payload bytes laid out so far
	dry bool
}

func (w *writer) put(b []byte) {
	w.n += len(b)
	if !w.dry {
		w.buf = append(w.buf, b...)
	}
}

func (w *writer) text(s string) {
	w.n += len(s)
	if !w.dry {
		w.buf = append(w.buf, s...)
	}
}

func (w *writer) u8(v byte)      { w.put([]byte{v}) }
func (w *writer) u32(v uint32)   { w.put(binary.LittleEndian.AppendUint32(make([]byte, 0, 4), v)) }
func (w *writer) u64(v uint64)   { w.put(binary.LittleEndian.AppendUint64(make([]byte, 0, 8), v)) }
func (w *writer) bytes(b []byte) { w.u32(uint32(len(b))); w.put(b) }
func (w *writer) str(s string)   { w.u32(uint32(len(s))); w.text(s) }

// align zero-pads the payload to an n-byte boundary relative to the
// payload start (which the frame header keeps 8-byte aligned), so the
// decoder can view the following elements in place.
func (w *writer) align(n int) {
	for w.n%n != 0 {
		w.u8(0)
	}
}

func (w *writer) u32s(vs []uint32) {
	w.u32(uint32(len(vs)))
	w.align(4)
	for _, v := range vs {
		w.u32(v)
	}
}

func (w *writer) i32s(vs []int32) {
	w.u32(uint32(len(vs)))
	w.align(4)
	for _, v := range vs {
		w.u32(uint32(v))
	}
}

func (w *writer) u64s(vs []uint64) {
	w.u32(uint32(len(vs)))
	w.align(8)
	for _, v := range vs {
		w.u64(v)
	}
}

// strs writes a string column: count, the lengths, then one concatenated
// blob — the layout the decoder windows without copying.
func (w *writer) strs(ss []string) {
	w.u32(uint32(len(ss)))
	for _, s := range ss {
		w.u32(uint32(len(s)))
	}
	for _, s := range ss {
		w.text(s)
	}
}

// col writes a strtab column: the offset table (aligned, so the decoder
// views it in place), then the blob. The decoder installs both as
// windows into the input — a string column costs it two slice headers.
func (w *writer) col(c *strtab.Col) {
	w.u32s(c.Off)
	w.bytes(c.Blob)
}

func (w *writer) bools(bs []bool) {
	w.u32(uint32(len(bs)))
	for _, b := range bs {
		w.u8(b2u(b))
	}
}

// reader is the bounds-checked payload cursor. Every accessor returns
// ErrTruncated instead of reading past the buffer. With zc set (8-byte
// aligned payload on a little-endian host) numeric columns are viewed
// in place instead of copied.
type reader struct {
	buf []byte
	off int
	zc  bool
}

// align skips the writer's zero padding to an n-byte boundary.
func (r *reader) align(n int) error {
	pad := (n - r.off%n) % n
	if r.off+pad > len(r.buf) {
		return ErrTruncated
	}
	r.off += pad
	return nil
}

// u32block reads n little-endian u32s, in place when possible.
func (r *reader) u32block(n int) ([]uint32, error) {
	if err := r.align(4); err != nil {
		return nil, err
	}
	if n < 0 || n > (len(r.buf)-r.off)/4 {
		return nil, ErrTruncated
	}
	end := r.off + n*4
	var out []uint32
	switch {
	case n == 0:
	case r.zc:
		out = unsafe.Slice((*uint32)(unsafe.Pointer(&r.buf[r.off])), n)
	default:
		out = make([]uint32, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(r.buf[r.off+i*4:])
		}
	}
	r.off = end
	return out, nil
}

// u64block reads n little-endian u64s, in place when possible.
func (r *reader) u64block(n int) ([]uint64, error) {
	if err := r.align(8); err != nil {
		return nil, err
	}
	if n < 0 || n > (len(r.buf)-r.off)/8 {
		return nil, ErrTruncated
	}
	end := r.off + n*8
	var out []uint64
	switch {
	case n == 0:
	case r.zc:
		out = unsafe.Slice((*uint64)(unsafe.Pointer(&r.buf[r.off])), n)
	default:
		out = make([]uint64, n)
		for i := range out {
			out[i] = binary.LittleEndian.Uint64(r.buf[r.off+i*8:])
		}
	}
	r.off = end
	return out, nil
}

func (r *reader) u8() (byte, error) {
	if r.off+1 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// count reads a u32 element count and sanity-checks it against the bytes
// remaining (each element needs at least elemSize bytes), so a corrupt
// count cannot drive a huge allocation.
func (r *reader) count(elemSize int) (int, error) {
	v, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(v)*int64(elemSize) > int64(len(r.buf)-r.off) {
		return 0, fmt.Errorf("%w: count %d exceeds remaining payload", ErrTruncated, v)
	}
	return int(v), nil
}

func (r *reader) bytes(want int) ([]byte, error) {
	got, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(got) != want {
		return nil, fmt.Errorf("snapbin: column has %d entries, want %d", got, want)
	}
	if r.off+want > len(r.buf) {
		return nil, ErrTruncated
	}
	b := r.buf[r.off : r.off+want : r.off+want]
	r.off += want
	return b, nil
}

// bytesAny reads a byte column whose length is self-described (columns
// not sized by the filter count). The window aliases the input buffer.
func (r *reader) bytesAny() ([]byte, error) {
	n, err := r.count(1)
	if err != nil {
		return nil, err
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b, nil
}

// u32sAny reads a self-described u32 column.
func (r *reader) u32sAny() ([]uint32, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	return r.u32block(n)
}

// u64sAny reads a self-described u64 column.
func (r *reader) u64sAny() ([]uint64, error) {
	n, err := r.count(8)
	if err != nil {
		return nil, err
	}
	return r.u64block(n)
}

func (r *reader) bools(want int) ([]bool, error) {
	b, err := r.bytes(want)
	if err != nil {
		return nil, err
	}
	out := make([]bool, len(b))
	for i, v := range b {
		out[i] = v != 0
	}
	return out, nil
}

func (r *reader) u32s(want int) ([]uint32, error) {
	got, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(got) != want {
		return nil, fmt.Errorf("snapbin: column has %d entries, want %d", got, want)
	}
	return r.u32block(want)
}

// i32s reads a fixed-size i32 column (same wire form as u32s).
func (r *reader) i32s(want int) ([]int32, error) {
	vs, err := r.u32s(want)
	if err != nil || len(vs) == 0 {
		return nil, err
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&vs[0])), len(vs)), nil
}

func (r *reader) u64s(want int) ([]uint64, error) {
	got, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int(got) != want {
		return nil, fmt.Errorf("snapbin: column has %d entries, want %d", got, want)
	}
	return r.u64block(want)
}

// str reads one length-prefixed string, zero-copy.
func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.buf) || int(n) < 0 {
		return "", ErrTruncated
	}
	s := zcString(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// col reads a strtab column as two zero-copy windows into the payload.
// The offset table is validated here, once, so the column's At accessor
// never slices out of range no matter how corrupt the (checksum-passing)
// input was.
func (r *reader) col() (strtab.Col, error) {
	off, err := r.u32sAny()
	if err != nil {
		return strtab.Col{}, err
	}
	blob, err := r.bytesAny()
	if err != nil {
		return strtab.Col{}, err
	}
	c := strtab.Col{Off: off, Blob: blob}
	if err := c.Validate(); err != nil {
		return strtab.Col{}, fmt.Errorf("snapbin: %w", err)
	}
	return c, nil
}

// strs reads one string column: the lengths, then the blob, each string
// a zero-copy window into it. The length section is walked in place —
// no intermediate slice.
func (r *reader) strs() ([]string, error) {
	n, err := r.count(4)
	if err != nil {
		return nil, err
	}
	lens := r.buf[r.off:]
	r.off += n * 4
	out := make([]string, n)
	off := r.off
	for i := 0; i < n; i++ {
		l := int(binary.LittleEndian.Uint32(lens[i*4:]))
		if l > len(r.buf)-off {
			return nil, ErrTruncated
		}
		out[i] = zcString(r.buf[off : off+l])
		off += l
	}
	r.off = off
	return out, nil
}

// zcString views b as a string without copying. Decode's contract (the
// input buffer is retained and never modified) makes this safe.
func zcString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}
