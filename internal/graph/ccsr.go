package graph

// ccsr.go: the compressed, memory-mappable CSR — Ligra+'s byte-coded
// adjacency (Shun, Dhulipala, Blelloch, DCC'15) adapted to this package's
// on-disk needs. A .lgz file stores the familiar edge-offset array plus one
// delta-gap varint block per adjacency list, each list (and each 128-target
// sub-block of a long list) independently decodable, so both edge
// traversal shapes work straight off the file:
//
//   - the sparse path decodes exactly the frontier vertices' lists;
//   - the dense path chunks the same edge-offset array as the heap CSR and
//     decodes only the sub-blocks a chunk actually covers, entering mid-list
//     through the sub-block index instead of re-decoding the prefix.
//
// Because the edge-offset array is stored verbatim, chunk boundaries, visit
// order, and the direction heuristic are identical to the heap CSR — kernel
// results on the two representations are bit-identical, not just equal.
//
// File layout (all integers little-endian):
//
//	[0:8)   magic "LGZCSR1\n"
//	[8:12)  format version (1)
//	[12:16) flags: bit0 = edge offsets are u64 (else u32)
//	               bit1 = byte offsets are u64 (else u32)
//	[16:24) n (vertices)        [24:32) m (unique undirected edges)
//	[32:40) blocks section length in bytes
//	[40:44) max degree
//	[44:48) CRC32-C of the edge-offset section (incl. alignment padding)
//	[48:52) CRC32-C of the byte-offset section (incl. alignment padding)
//	[52:56) CRC32-C of the blocks section
//	[56:60) CRC32-C of header bytes [0:56)
//	[60:64) zero padding (must be zero; checked at open)
//
// followed by three sections, each aligned to 8 bytes (zero padding
// between): edge offsets (n+1 entries), byte offsets (n+1 entries, offsets
// of each vertex's block within the blocks section), and the blocks. The
// section CRCs run to the start of the next section so the alignment
// padding is covered too — every byte of the file outside the blocks
// section is checksum-protected at open time.
//
// Block encoding for a vertex v of degree d > 0: the sorted list is split
// into nb = ceil(d/128) sub-blocks of 128 targets (the last one shorter).
// When nb > 1, the block opens with nb-1 u32 byte offsets (relative to the
// block start) locating sub-blocks 1..nb-1. Each sub-block encodes its
// first target as a zigzag varint of (first - v) — community-local IDs make
// this delta small — and the remaining targets as byte-RLE gap runs
// (Ligra+'s byte-RLE code): a run header byte packing (runLen-1)<<2 |
// (width-1), runLen in [1,64] and width in [1,4], followed by runLen
// little-endian values of width bytes, each holding (gap - 1) from its
// predecessor (lists are strictly sorted, so gaps are >= 1). Real
// adjacency lists are long stretches of community-local 1-byte gaps broken
// by occasional wide jumps, so runs are long and the decoder's inner loop
// is fixed-width and branch-free — the reason byte-RLE beats plain varint
// gaps on decode throughput despite near-identical size. A vertex of
// degree 0 occupies zero bytes.
//
// Open cost is O(mmap) + O(n): the header and both offset sections are
// checksummed and structurally validated (monotone, exact section coverage,
// recomputed max degree), but the blocks — the bulk of the file — are not
// touched, so pages fault in lazily under query traffic. Verify performs
// the full O(m) pass (blocks CRC + every list decoded and checked);
// lgc-pack runs it after writing, and tests/fuzz run it before trusting a
// file. A block that is corrupt despite open-time validation fails loudly:
// every decode is bounds-checked against its own byte region and the vertex
// universe, so hostile bytes can produce an error or a panic with a
// diagnostic, never an out-of-bounds read.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"unsafe"

	"parcluster/internal/parallel"
)

const (
	lgzMagic      = "LGZCSR1\n"
	lgzVersion    = 1
	lgzHeaderSize = 64
	// lgzSubBlock is the sub-block granularity of long lists: the decode
	// unit for mid-list entry. 128 targets keeps the u32 sub-block index
	// under 1% of a long list's encoded size while bounding the bytes a
	// dense chunk must decode past its boundary.
	lgzSubBlock = 128

	lgzFlagEdge64 = 1 << 0
	lgzFlagByte64 = 1 << 1
)

// castagnoli is the CRC32-C table used for every .lgz checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether multi-byte loads read .lgz sections
// directly; a big-endian host falls back to converting copies.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// CCSR is an immutable undirected graph served from a compressed .lgz
// image, usually memory-mapped. It implements Graph; adjacency lists are
// decoded on access (NeighborsInto and NeighborsTail reuse caller scratch,
// so steady-state traversals allocate nothing).
type CCSR struct {
	data   []byte // the whole file image (mmap or heap copy)
	mapped bool
	path   string

	n      int
	m      uint64
	maxDeg uint32

	// offs is the edge-offset array as []uint64: an unsafe view of the
	// file when it stores 64-bit offsets on a little-endian host, else a
	// heap materialization (bounded: files small enough to use 32-bit
	// offsets cost n+1 u64s, exactly a heap CSR's offset array).
	offs []uint64
	// bo32/bo64: exactly one is non-nil — the byte-offset array, viewed at
	// its stored width (or materialized as bo64 on a big-endian host).
	bo32 []uint32
	bo64 []uint64
	// blocks is the encoded-adjacency section.
	blocks []byte

	crcBlocks uint32
}

// errCorrupt tags every malformed-file error so callers can distinguish
// corruption from I/O failures.
var errCorrupt = errors.New("graph: corrupt .lgz file")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCorrupt, fmt.Sprintf(format, args...))
}

// zigzag maps a signed delta to the unsigned varint domain.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// align8 rounds o up to the next multiple of 8.
func align8(o uint64) uint64 { return (o + 7) &^ 7 }

// appendList appends the block encoding of v's sorted adjacency list ns
// (non-empty) to dst and returns the extended slice. An error is only
// possible for a single list whose encoding exceeds 4 GiB (degree beyond
// any real graph's).
func appendList(dst []byte, v uint32, ns []uint32) ([]byte, error) {
	d := len(ns)
	nb := (d + lgzSubBlock - 1) / lgzSubBlock
	start := len(dst)
	hdr := 0
	if nb > 1 {
		hdr = 4 * (nb - 1)
		dst = append(dst, make([]byte, hdr)...)
	}
	var tmp [binary.MaxVarintLen64]byte
	for sb := 0; sb < nb; sb++ {
		if sb > 0 {
			rel := len(dst) - start
			if rel > math.MaxUint32 {
				return nil, fmt.Errorf("graph: vertex %d adjacency encodes beyond 4 GiB", v)
			}
			binary.LittleEndian.PutUint32(dst[start+4*(sb-1):], uint32(rel))
		}
		lo := sb * lgzSubBlock
		hi := min(lo+lgzSubBlock, d)
		k := binary.PutUvarint(tmp[:], zigzag(int64(ns[lo])-int64(v)))
		dst = append(dst, tmp[:k]...)
		// Gap values and byte widths for this sub-block.
		var gv [lgzSubBlock - 1]uint32
		var wv [lgzSubBlock - 1]int
		ng := 0
		prev := ns[lo]
		for _, w := range ns[lo+1 : hi] {
			gv[ng] = w - prev - 1
			wv[ng] = gapWidth(gv[ng])
			ng++
			prev = w
		}
		// Promotion pass: a short narrow stretch sandwiched between two
		// equal wider widths is stored at the wider width when the extra
		// value bytes cost no more than the two run headers the merge
		// saves. Gap widths in real lists alternate near community
		// boundaries; without this pass that alternation shatters the
		// encoding into two-value runs and the decoder pays a header parse
		// per couple of gaps.
		for i := 0; i < ng; {
			j := i + 1
			for j < ng && wv[j] == wv[i] {
				j++
			}
			if i > 0 && j < ng && wv[i-1] == wv[j] && wv[i-1] > wv[i] && (j-i)*(wv[i-1]-wv[i]) <= 2 {
				for t := i; t < j; t++ {
					wv[t] = wv[i-1]
				}
			}
			i = j
		}
		// Greedy run formation: extend a run while the next gap is stored
		// at the same width, up to the 64-value header limit. Runs never
		// cross a sub-block boundary.
		for i := 0; i < ng; {
			w := wv[i]
			j := i + 1
			for j < ng && j-i < lgzMaxRun && wv[j] == w {
				j++
			}
			dst = append(dst, byte((j-i-1)<<2|(w-1)))
			for _, g := range gv[i:j] {
				binary.LittleEndian.PutUint32(tmp[:], g)
				dst = append(dst, tmp[:w]...)
			}
			i = j
		}
	}
	return dst, nil
}

// lgzMaxRun is the longest byte-RLE run a single header byte can describe.
const lgzMaxRun = 64

// gapWidth returns the byte width (1..4) of a stored gap value.
func gapWidth(x uint32) int {
	switch {
	case x < 1<<8:
		return 1
	case x < 1<<16:
		return 2
	case x < 1<<24:
		return 3
	default:
		return 4
	}
}

// cushion returns b extended by up to 8 readable bytes of its backing
// array — still inside the mapped (or heap-copied) file image — enabling
// decodeSub's fast path; b itself when the backing array ends too soon.
func cushion(b []byte) []byte {
	if cap(b) >= len(b)+8 {
		return b[:len(b)+8]
	}
	return b
}

// decodeRegion decodes list indices [start, stop) of vertex v (degree
// d > 0) into dst (len stop-start). start must be a multiple of
// lgzSubBlock and stop either d itself or the end of the last requested
// sub-block, so every decoded sub-block is consumed in full. It validates
// everything it reads: varint well-formedness, strict ascending order, the
// vertex universe bound, sub-block index sanity, and exact byte
// consumption — hostile bytes yield an error, never an out-of-bounds read.
// All reads are confined to region plus its readable cushion.
func decodeRegion(dst []uint32, region []byte, v uint32, n uint64, d, start, stop int) error {
	nb := (d + lgzSubBlock - 1) / lgzSubBlock
	hdr := 0
	if nb > 1 {
		hdr = 4 * (nb - 1)
		if len(region) < hdr {
			return corruptf("vertex %d: block shorter than its sub-block index", v)
		}
	}
	for sb := start / lgzSubBlock; sb*lgzSubBlock < stop; sb++ {
		blo := hdr
		if sb > 0 {
			blo = int(binary.LittleEndian.Uint32(region[4*(sb-1):]))
		}
		bhi := len(region)
		if sb+1 < nb {
			bhi = int(binary.LittleEndian.Uint32(region[4*sb:]))
		}
		if blo < hdr || bhi < blo || bhi > len(region) {
			return corruptf("vertex %d: sub-block %d spans [%d,%d) outside block of %d bytes", v, sb, blo, bhi, len(region))
		}
		b := region[blo:bhi]
		be := cushion(b)
		cushioned := len(be) >= len(b)+8

		// Leading target: zigzag varint of (first - v). The 1-3 byte cases
		// (|delta| below 2^20) decode inline; longer deltas and the
		// cushionless tail fall back to the stdlib.
		var u uint64
		var k int
		if cushioned && len(b) > 0 {
			c0 := be[0]
			u = uint64(c0 & 0x7f)
			k = 1
			if c0 >= 0x80 {
				c1 := be[1]
				u |= uint64(c1&0x7f) << 7
				k = 2
				if c1 >= 0x80 {
					c2 := be[2]
					u |= uint64(c2&0x7f) << 14
					k = 3
					if c2 >= 0x80 {
						var kk int
						u, kk = binary.Uvarint(b)
						if kk <= 0 {
							return corruptf("vertex %d: sub-block %d: malformed leading varint", v, sb)
						}
						k = kk
					}
				}
			}
		} else {
			var kk int
			u, kk = binary.Uvarint(b)
			if kk <= 0 {
				return corruptf("vertex %d: sub-block %d: malformed leading varint", v, sb)
			}
			k = kk
		}
		val := int64(v) + unzigzag(u)
		if val < 0 || uint64(val) >= n {
			return corruptf("vertex %d: neighbor %d outside universe of %d vertices", v, val, n)
		}
		i := sb*lgzSubBlock - start
		iEnd := min(sb*lgzSubBlock+lgzSubBlock, stop) - start
		dst[i] = uint32(val)
		if i > 0 && dst[i] <= dst[i-1] {
			return corruptf("vertex %d: adjacency not strictly sorted across sub-blocks", v)
		}
		i++
		// Gap runs: one header byte per run, then runLen fixed-width
		// little-endian values. The header's claims are verified up front
		// (run fits the remaining targets, payload fits the remaining
		// bytes), so the per-width inner loops run branch-free with no
		// per-gap length tests; the list is strictly ascending, so a single
		// universe check on the run's final value covers every value in it.
		for i < iEnd {
			if k >= len(b) {
				return corruptf("vertex %d: sub-block %d: missing gap run header", v, sb)
			}
			h := b[k]
			k++
			w := int(h&3) + 1
			rl := int(h>>2) + 1
			if rl > iEnd-i || k+w*rl > len(b) {
				return corruptf("vertex %d: sub-block %d: gap run overflows sub-block", v, sb)
			}
			out := dst[i : i+rl]
			i += rl
			switch w {
			case 1:
				for j, c := range b[k : k+rl] {
					val += int64(c) + 1
					out[j] = uint32(val)
				}
			case 2:
				// The cursor form (advance p, test len in the condition)
				// is what the prove pass eliminates every bounds check
				// for; the lengths match exactly by the checks above.
				p := b[k : k+2*rl]
				for j := 0; len(p) >= 2 && j < len(out); j, p = j+1, p[2:] {
					val += int64(binary.LittleEndian.Uint16(p)) + 1
					out[j] = uint32(val)
				}
			case 3:
				p := b[k : k+3*rl]
				for j := 0; len(p) >= 3 && j < len(out); j, p = j+1, p[3:] {
					val += int64(uint32(p[0])|uint32(p[1])<<8|uint32(p[2])<<16) + 1
					out[j] = uint32(val)
				}
			default:
				p := b[k : k+4*rl]
				for j := 0; len(p) >= 4 && j < len(out); j, p = j+1, p[4:] {
					val += int64(binary.LittleEndian.Uint32(p)) + 1
					out[j] = uint32(val)
				}
			}
			k += w * rl
			if uint64(val) >= n {
				return corruptf("vertex %d: neighbor %d outside universe of %d vertices", v, val, n)
			}
		}
		if k != len(b) {
			return corruptf("vertex %d: sub-block %d: %d trailing bytes", v, sb, len(b)-k)
		}
	}
	return nil
}

// decodeList decodes the whole block region of vertex v (degree d > 0)
// into dst[:d].
func decodeList(dst []uint32, region []byte, v uint32, n uint64, d int) error {
	return decodeRegion(dst[:d], region, v, n, d, 0, d)
}

// region returns the encoded block bytes of vertex v.
func (g *CCSR) region(v uint32) []byte {
	if g.bo32 != nil {
		return g.blocks[g.bo32[v]:g.bo32[v+1]]
	}
	return g.blocks[g.bo64[v]:g.bo64[v+1]]
}

// NumVertices returns n.
func (g *CCSR) NumVertices() int { return g.n }

// NumEdges returns the number of unique undirected edges m.
func (g *CCSR) NumEdges() uint64 { return g.m }

// TotalVolume returns 2m.
func (g *CCSR) TotalVolume() uint64 { return 2 * g.m }

// Degree returns d(v).
func (g *CCSR) Degree(v uint32) uint32 { return uint32(g.offs[v+1] - g.offs[v]) }

// MaxDegree returns the largest degree, recomputed (not trusted from the
// header) at open time.
func (g *CCSR) MaxDegree() uint32 { return g.maxDeg }

// Offsets returns the edge-offset array; see Graph.
func (g *CCSR) Offsets() []uint64 { return g.offs }

// Neighbors returns v's adjacency list as a fresh allocation. Hot loops use
// NeighborsInto/NeighborsTail with reused scratch instead.
func (g *CCSR) Neighbors(v uint32) []uint32 {
	d := int(g.Degree(v))
	if d == 0 {
		return nil
	}
	out := make([]uint32, d)
	if err := decodeList(out, g.region(v), v, uint64(g.n), d); err != nil {
		panic(err)
	}
	return out
}

// NeighborsInto decodes v's adjacency list into buf (grown if needed) and
// returns it. See Graph for the buffer-reuse idiom.
func (g *CCSR) NeighborsInto(buf []uint32, v uint32) []uint32 {
	ns, _ := g.NeighborsTail(buf, v, 0)
	return ns
}

// NeighborsTail decodes v's adjacency from the sub-block containing index j
// onward, returning the decoded suffix and the list index of its first
// element (a multiple of the 128-target sub-block size).
func (g *CCSR) NeighborsTail(buf []uint32, v uint32, j int) ([]uint32, int) {
	d := int(g.Degree(v))
	if d == 0 {
		return nil, 0
	}
	start := (j / lgzSubBlock) * lgzSubBlock
	if start < 0 || start >= d {
		start = 0
	}
	if cap(buf) < d-start {
		buf = make([]uint32, d-start, max(d-start, 2*cap(buf)))
	}
	buf = buf[:d-start]
	// decodeList indexes dst by absolute list position; shift the slice so
	// position `start` lands at buf[0].
	dst := buf
	if start > 0 {
		// Decode into a window aligned so dst[i-start] holds index i: use a
		// temporary header trick by decoding with lo and a shifted dst is
		// not possible directly, so decode sub-blocks with an offset copy.
		return g.tailInto(buf, v, d, start), start
	}
	if err := decodeList(dst, g.region(v), v, uint64(g.n), d); err != nil {
		panic(err)
	}
	return dst, start
}

// tailInto decodes list indices [start, d) of v into buf (len d-start).
// start is a positive multiple of lgzSubBlock.
func (g *CCSR) tailInto(buf []uint32, v uint32, d, start int) []uint32 {
	if err := decodeRegion(buf, g.region(v), v, uint64(g.n), d, start, d); err != nil {
		panic(err)
	}
	return buf
}

// NeighborAt returns the i-th neighbor of v by decoding only the sub-block
// containing index i — O(128), allocation-free.
func (g *CCSR) NeighborAt(v uint32, i uint32) uint32 {
	var tmp [lgzSubBlock]uint32
	d := int(g.Degree(v))
	start := (int(i) / lgzSubBlock) * lgzSubBlock
	ns := g.tailOne(tmp[:0], v, d, start)
	return ns[int(i)-start]
}

// tailOne decodes exactly one sub-block (indices [start, min(start+128, d)))
// into buf's storage.
func (g *CCSR) tailOne(buf []uint32, v uint32, d, start int) []uint32 {
	end := min(start+lgzSubBlock, d)
	buf = buf[:end-start]
	if err := decodeRegion(buf, g.region(v), v, uint64(g.n), d, start, end); err != nil {
		panic(err)
	}
	return buf
}

// WalkTail streams fn over v's neighbors at list indices [j, j+limit)
// (clamped to the degree), fusing decode with apply: full sub-blocks feed
// the callback straight from the gap-run loops with no intermediate buffer,
// so the dense traversal skips NeighborsTail's materialize-then-rescan round
// trip. Returns the number of neighbors visited. Like the other read paths,
// encoding errors panic: the file passed open-time validation, so a decode
// failure here means the backing bytes mutated underneath us.
func (g *CCSR) WalkTail(v uint32, j, limit int, fn func(dst uint32)) int {
	d := int(g.Degree(v))
	if j < 0 {
		j = 0
	}
	hi := d
	if limit < d-j {
		hi = j + limit
	}
	if j >= hi {
		return 0
	}
	if err := g.walkRegion(g.region(v), v, d, j, hi, fn); err != nil {
		panic(err)
	}
	return hi - j
}

// walkRegion is decodeRegion's streaming twin: it visits list indices
// [start, stop) of vertex v (degree d > 0) through fn instead of a
// destination slice. Sub-blocks fully inside the window stream the callback
// from the run loops; a partially covered first or last sub-block is decoded
// into a stack buffer by decodeRegion and the window replayed from it. The
// two functions must apply identical validation — any change to one is a
// change to both.
func (g *CCSR) walkRegion(region []byte, v uint32, d, start, stop int, fn func(uint32)) error {
	nb := (d + lgzSubBlock - 1) / lgzSubBlock
	hdr := 0
	if nb > 1 {
		hdr = 4 * (nb - 1)
		if len(region) < hdr {
			return corruptf("vertex %d: block shorter than its sub-block index", v)
		}
	}
	n := uint64(g.n)
	last := int64(-1) // final value of the previously visited sub-block
	for sb := start / lgzSubBlock; sb*lgzSubBlock < stop; sb++ {
		i0 := sb * lgzSubBlock
		i1 := min(i0+lgzSubBlock, d)
		if i0 < start || i1 > stop {
			// Window covers this sub-block only partially: decode it whole
			// (validation needs every byte consumed) and replay the slice.
			var tmp [lgzSubBlock]uint32
			t := tmp[:i1-i0]
			if err := decodeRegion(t, region, v, n, d, i0, i1); err != nil {
				return err
			}
			if int64(t[0]) <= last {
				return corruptf("vertex %d: adjacency not strictly sorted across sub-blocks", v)
			}
			for _, w := range t[max(start, i0)-i0 : min(stop, i1)-i0] {
				fn(w)
			}
			last = int64(t[len(t)-1])
			continue
		}
		blo := hdr
		if sb > 0 {
			blo = int(binary.LittleEndian.Uint32(region[4*(sb-1):]))
		}
		bhi := len(region)
		if sb+1 < nb {
			bhi = int(binary.LittleEndian.Uint32(region[4*sb:]))
		}
		if blo < hdr || bhi < blo || bhi > len(region) {
			return corruptf("vertex %d: sub-block %d spans [%d,%d) outside block of %d bytes", v, sb, blo, bhi, len(region))
		}
		b := region[blo:bhi]
		be := cushion(b)
		cushioned := len(be) >= len(b)+8

		var u uint64
		var k int
		if cushioned && len(b) > 0 {
			c0 := be[0]
			u = uint64(c0 & 0x7f)
			k = 1
			if c0 >= 0x80 {
				c1 := be[1]
				u |= uint64(c1&0x7f) << 7
				k = 2
				if c1 >= 0x80 {
					c2 := be[2]
					u |= uint64(c2&0x7f) << 14
					k = 3
					if c2 >= 0x80 {
						var kk int
						u, kk = binary.Uvarint(b)
						if kk <= 0 {
							return corruptf("vertex %d: sub-block %d: malformed leading varint", v, sb)
						}
						k = kk
					}
				}
			}
		} else {
			var kk int
			u, kk = binary.Uvarint(b)
			if kk <= 0 {
				return corruptf("vertex %d: sub-block %d: malformed leading varint", v, sb)
			}
			k = kk
		}
		val := int64(v) + unzigzag(u)
		if val < 0 || uint64(val) >= n {
			return corruptf("vertex %d: neighbor %d outside universe of %d vertices", v, val, n)
		}
		if val <= last {
			return corruptf("vertex %d: adjacency not strictly sorted across sub-blocks", v)
		}
		fn(uint32(val))
		for i := i0 + 1; i < i1; {
			if k >= len(b) {
				return corruptf("vertex %d: sub-block %d: missing gap run header", v, sb)
			}
			h := b[k]
			k++
			w := int(h&3) + 1
			rl := int(h>>2) + 1
			if rl > i1-i || k+w*rl > len(b) {
				return corruptf("vertex %d: sub-block %d: gap run overflows sub-block", v, sb)
			}
			i += rl
			switch w {
			case 1:
				for _, c := range b[k : k+rl] {
					val += int64(c) + 1
					fn(uint32(val))
				}
			case 2:
				for p := b[k : k+2*rl]; len(p) >= 2; p = p[2:] {
					val += int64(binary.LittleEndian.Uint16(p)) + 1
					fn(uint32(val))
				}
			case 3:
				for p := b[k : k+3*rl]; len(p) >= 3; p = p[3:] {
					val += int64(uint32(p[0])|uint32(p[1])<<8|uint32(p[2])<<16) + 1
					fn(uint32(val))
				}
			default:
				for p := b[k : k+4*rl]; len(p) >= 4; p = p[4:] {
					val += int64(binary.LittleEndian.Uint32(p)) + 1
					fn(uint32(val))
				}
			}
			k += w * rl
			if uint64(val) >= n {
				return corruptf("vertex %d: neighbor %d outside universe of %d vertices", v, val, n)
			}
		}
		if k != len(b) {
			return corruptf("vertex %d: sub-block %d: %d trailing bytes", v, sb, len(b)-k)
		}
		last = val
	}
	return nil
}

// HasEdge reports whether {u, v} is an edge by decoding the shorter list
// through pooled scratch.
func (g *CCSR) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	bp := decodeBufs.Get().(*[]uint32)
	ns := g.NeighborsInto(*bp, u)
	found := false
	for lo, hi := 0, len(ns); lo < hi; {
		mid := (lo + hi) / 2
		switch {
		case ns[mid] == v:
			found = true
			lo = hi
		case ns[mid] < v:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	ReleaseDecodeBuf(bp, ns)
	return found
}

// Volume returns vol(S); see Graph.
func (g *CCSR) Volume(S []uint32) uint64 { return volumeOf(g, S) }

// Boundary returns |∂(S)|; see Graph.
func (g *CCSR) Boundary(S []uint32) uint64 { return boundaryOf(g, S) }

// Conductance returns φ(S); see Graph.
func (g *CCSR) Conductance(S []uint32) float64 { return conductanceOf(g, S) }

// Mapped reports whether the image is served by mmap (false: heap copy).
func (g *CCSR) Mapped() bool { return g.mapped }

// MappedBytes returns the size of the memory-mapped image in bytes, 0 when
// the copying fallback loaded the file onto the heap.
func (g *CCSR) MappedBytes() int64 {
	if !g.mapped {
		return 0
	}
	return int64(len(g.data))
}

// Path returns the file the image was opened from ("" for in-memory use).
func (g *CCSR) Path() string { return g.path }

// Close releases the mapping (a no-op for heap-backed images). The graph
// must not be used afterwards. Long-lived servers never call it — loaded
// graphs are pinned for the process lifetime — but tools and tests do.
func (g *CCSR) Close() error {
	if !g.mapped {
		return nil
	}
	g.mapped = false
	data := g.data
	g.data, g.blocks, g.bo32, g.bo64 = nil, nil, nil, nil
	return unmapFile(data)
}

// Verify performs the full O(m) integrity pass skipped at open time: the
// blocks-section checksum, then a parallel decode of every adjacency list
// with all decode-time validation (strict order, universe bounds, exact
// byte consumption). lgc-pack runs it after writing a file; operators can
// run `lgc-pack -check` on suspect files.
func (g *CCSR) Verify(p int) error {
	if crc32.Checksum(g.blocks, castagnoli) != g.crcBlocks {
		return corruptf("blocks section checksum mismatch")
	}
	p = parallel.ResolveProcs(p)
	errs := make([]error, p)
	parallel.Run(p, func(worker int) {
		buf := make([]uint32, 0, 1024)
		for v := worker; v < g.n; v += p {
			d := int(g.Degree(uint32(v)))
			if d == 0 {
				continue
			}
			if cap(buf) < d {
				buf = make([]uint32, 0, d)
			}
			if err := decodeList(buf[:d], g.region(uint32(v)), uint32(v), uint64(g.n), d); err != nil {
				if errs[worker] == nil {
					errs[worker] = err
				}
				return
			}
		}
	})
	return errors.Join(errs...)
}

// WriteCompressed encodes g into the .lgz format on w, using p workers for
// the (two-pass) parallel encode.
func WriteCompressed(p int, w io.Writer, g Graph) error {
	img, err := compressImage(p, g)
	if err != nil {
		return err
	}
	_, err = w.Write(img)
	return err
}

// SaveCompressed writes g to path in .lgz format.
func SaveCompressed(p int, path string, g Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := WriteCompressed(p, bw, g); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compressImage builds the complete .lgz image in memory. Chunks of
// vertices are encoded independently in parallel, then concatenated through
// a byte-offset prefix sum.
func compressImage(p int, g Graph) ([]byte, error) {
	p = parallel.ResolveProcs(p)
	n := g.NumVertices()
	if uint64(n) > maxLoadVertices {
		return nil, fmt.Errorf("graph: vertex count %d exceeds the uint32 vertex universe", n)
	}
	const grain = 2048
	chunks := (n + grain - 1) / grain
	bufs := make([][]byte, chunks)
	lens := make([]uint64, n+1)
	encErrs := make([]error, max(chunks, 1))
	parallel.ForRange(p, n, grain, func(lo, hi int) {
		var buf []byte
		var scratch []uint32
		for v := lo; v < hi; v++ {
			ns := g.NeighborsInto(scratch, uint32(v))
			scratch = ns
			if len(ns) == 0 {
				continue
			}
			prev := len(buf)
			var err error
			if buf, err = appendList(buf, uint32(v), ns); err != nil {
				encErrs[lo/grain] = err
				return
			}
			lens[v+1] = uint64(len(buf) - prev)
		}
		bufs[lo/grain] = buf
	})
	if err := errors.Join(encErrs...); err != nil {
		return nil, err
	}
	// Byte offsets: prefix sum of per-vertex encoded lengths.
	var blocksLen uint64
	for v := 1; v <= n; v++ {
		blocksLen += lens[v]
		lens[v] = blocksLen
	}
	byteOffs := lens // renamed: now the n+1 byte-offset array

	offs := g.Offsets()
	edge64 := offs[n] > math.MaxUint32
	byte64 := blocksLen > math.MaxUint32
	ew, bw := 4, 4
	if edge64 {
		ew = 8
	}
	if byte64 {
		bw = 8
	}
	edgeOff0 := uint64(lgzHeaderSize)
	byteOff0 := align8(edgeOff0 + uint64(n+1)*uint64(ew))
	blocks0 := align8(byteOff0 + uint64(n+1)*uint64(bw))
	img := make([]byte, blocks0+blocksLen)

	// Sections.
	putOffsets := func(dst []byte, src []uint64, width int) {
		if width == 8 {
			for i, o := range src {
				binary.LittleEndian.PutUint64(dst[8*i:], o)
			}
		} else {
			for i, o := range src {
				binary.LittleEndian.PutUint32(dst[4*i:], uint32(o))
			}
		}
	}
	putOffsets(img[edgeOff0:], offs, ew)
	putOffsets(img[byteOff0:], byteOffs, bw)
	parallel.ForRange(p, chunks, 1, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			copy(img[blocks0+byteOffs[c*grain]:], bufs[c])
		}
	})

	// Header.
	flags := uint32(0)
	if edge64 {
		flags |= lgzFlagEdge64
	}
	if byte64 {
		flags |= lgzFlagByte64
	}
	copy(img, lgzMagic)
	binary.LittleEndian.PutUint32(img[8:], lgzVersion)
	binary.LittleEndian.PutUint32(img[12:], flags)
	binary.LittleEndian.PutUint64(img[16:], uint64(n))
	binary.LittleEndian.PutUint64(img[24:], g.NumEdges())
	binary.LittleEndian.PutUint64(img[32:], blocksLen)
	binary.LittleEndian.PutUint32(img[40:], g.MaxDegree())
	binary.LittleEndian.PutUint32(img[44:], crc32.Checksum(img[edgeOff0:byteOff0], castagnoli))
	binary.LittleEndian.PutUint32(img[48:], crc32.Checksum(img[byteOff0:blocks0], castagnoli))
	binary.LittleEndian.PutUint32(img[52:], crc32.Checksum(img[blocks0:], castagnoli))
	binary.LittleEndian.PutUint32(img[56:], crc32.Checksum(img[:56], castagnoli))
	return img, nil
}

// OpenCompressed opens a .lgz file: mmap when the platform supports it,
// else (or when mapping fails) a heap copy of the file. Open cost is
// O(mmap) + O(n) validation — the adjacency blocks are not read, so a cold
// server start does not pay for the graph's edges. The returned graph is
// valid for the life of the process unless Close is called.
func OpenCompressed(path string) (*CCSR, error) {
	data, mapped, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	g, err := newCCSR(data, mapped, path)
	if err != nil {
		if mapped {
			unmapFile(data)
		}
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// NewCompressed interprets data as a .lgz image without copying it. The
// caller must keep data immutable for the graph's lifetime. This is the
// in-memory entry point tests, fuzzing and the copying fallback share.
func NewCompressed(data []byte) (*CCSR, error) {
	return newCCSR(data, false, "")
}

// newCCSR validates the header and offset sections (O(n)) and assembles the
// accessor views.
func newCCSR(data []byte, mapped bool, path string) (*CCSR, error) {
	if len(data) < lgzHeaderSize {
		return nil, corruptf("file shorter than the %d-byte header", lgzHeaderSize)
	}
	if string(data[:8]) != lgzMagic {
		return nil, corruptf("bad magic %q", data[:8])
	}
	if crc32.Checksum(data[:56], castagnoli) != binary.LittleEndian.Uint32(data[56:]) {
		return nil, corruptf("header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != lgzVersion {
		return nil, corruptf("unsupported format version %d (want %d)", v, lgzVersion)
	}
	flags := binary.LittleEndian.Uint32(data[12:])
	if flags&^uint32(lgzFlagEdge64|lgzFlagByte64) != 0 {
		return nil, corruptf("unknown flags %#x", flags)
	}
	n64 := binary.LittleEndian.Uint64(data[16:])
	m := binary.LittleEndian.Uint64(data[24:])
	blocksLen := binary.LittleEndian.Uint64(data[32:])
	maxDegHdr := binary.LittleEndian.Uint32(data[40:])
	crcEdge := binary.LittleEndian.Uint32(data[44:])
	crcByte := binary.LittleEndian.Uint32(data[48:])
	crcBlocks := binary.LittleEndian.Uint32(data[52:])
	if n64 > maxLoadVertices {
		return nil, corruptf("vertex count %d exceeds the uint32 vertex universe", n64)
	}
	ew, bw := uint64(4), uint64(4)
	if flags&lgzFlagEdge64 != 0 {
		ew = 8
	}
	if flags&lgzFlagByte64 != 0 {
		bw = 8
	}
	// Section geometry, checked against the real file size before any
	// slicing (n64 is bounded above, so these cannot overflow).
	edgeOff0 := uint64(lgzHeaderSize)
	byteOff0 := align8(edgeOff0 + (n64+1)*ew)
	blocks0 := align8(byteOff0 + (n64+1)*bw)
	if uint64(len(data)) != blocks0+blocksLen {
		return nil, corruptf("file is %d bytes, header geometry wants %d", len(data), blocks0+blocksLen)
	}
	if data[60] != 0 || data[61] != 0 || data[62] != 0 || data[63] != 0 {
		return nil, corruptf("nonzero header padding")
	}
	edgeSec := data[edgeOff0 : edgeOff0+(n64+1)*ew]
	byteSec := data[byteOff0 : byteOff0+(n64+1)*bw]
	blocks := data[blocks0:]
	// Section CRCs cover the alignment padding up to the next section.
	if crc32.Checksum(data[edgeOff0:byteOff0], castagnoli) != crcEdge {
		return nil, corruptf("edge-offset section checksum mismatch")
	}
	if crc32.Checksum(data[byteOff0:blocks0], castagnoli) != crcByte {
		return nil, corruptf("byte-offset section checksum mismatch")
	}

	n := int(n64)
	g := &CCSR{
		data: data, mapped: mapped, path: path,
		n: n, m: m, crcBlocks: crcBlocks, blocks: blocks,
	}

	// Edge offsets: unsafe u64 view when stored wide on a little-endian
	// host, else a heap materialization.
	if ew == 8 && hostLittleEndian && aligned8(edgeSec) {
		g.offs = unsafe.Slice((*uint64)(unsafe.Pointer(&edgeSec[0])), n+1)
	} else {
		g.offs = make([]uint64, n+1)
		if ew == 8 {
			for i := range g.offs {
				g.offs[i] = binary.LittleEndian.Uint64(edgeSec[8*i:])
			}
		} else {
			for i := range g.offs {
				g.offs[i] = uint64(binary.LittleEndian.Uint32(edgeSec[4*i:]))
			}
		}
	}
	// Byte offsets: viewed at stored width (materialized on odd hosts).
	switch {
	case bw == 4 && hostLittleEndian && aligned4(byteSec):
		g.bo32 = unsafe.Slice((*uint32)(unsafe.Pointer(&byteSec[0])), n+1)
	case bw == 8 && hostLittleEndian && aligned8(byteSec):
		g.bo64 = unsafe.Slice((*uint64)(unsafe.Pointer(&byteSec[0])), n+1)
	default:
		g.bo64 = make([]uint64, n+1)
		if bw == 8 {
			for i := range g.bo64 {
				g.bo64[i] = binary.LittleEndian.Uint64(byteSec[8*i:])
			}
		} else {
			for i := range g.bo64 {
				g.bo64[i] = uint64(binary.LittleEndian.Uint32(byteSec[4*i:]))
			}
		}
	}

	// O(n) structural validation: monotone offsets covering exactly the
	// declared sections, degree/block-emptiness agreement, and the real
	// max degree (the header's copy is advisory and must agree).
	if g.offs[0] != 0 || g.offs[n] != 2*m {
		return nil, corruptf("edge offsets cover %d slots, header says 2m=%d", g.offs[n], 2*m)
	}
	bo := func(v int) uint64 {
		if g.bo32 != nil {
			return uint64(g.bo32[v])
		}
		return g.bo64[v]
	}
	if bo(0) != 0 || bo(n) != blocksLen {
		return nil, corruptf("byte offsets cover %d block bytes, header says %d", bo(n), blocksLen)
	}
	var maxDeg uint64
	for v := 0; v < n; v++ {
		if g.offs[v+1] < g.offs[v] {
			return nil, corruptf("edge offsets not monotone at vertex %d", v)
		}
		blo, bhi := bo(v), bo(v+1)
		if bhi < blo || bhi > blocksLen {
			return nil, corruptf("byte offsets not monotone at vertex %d", v)
		}
		d := g.offs[v+1] - g.offs[v]
		if d > maxDeg {
			maxDeg = d
		}
		if (d == 0) != (bhi == blo) {
			return nil, corruptf("vertex %d: degree %d but %d block bytes", v, d, bhi-blo)
		}
		if d > 0 {
			// The leanest legal encoding: one varint byte per target plus
			// the sub-block index.
			nb := (d + lgzSubBlock - 1) / lgzSubBlock
			minBytes := nb
			if nb > 1 {
				minBytes += 4 * (nb - 1)
			}
			if bhi-blo < minBytes {
				return nil, corruptf("vertex %d: degree %d cannot encode in %d bytes", v, d, bhi-blo)
			}
		}
	}
	if uint64(maxDegHdr) != maxDeg {
		return nil, corruptf("header max degree %d, offsets say %d", maxDegHdr, maxDeg)
	}
	g.maxDeg = uint32(maxDeg)
	return g, nil
}

// aligned8 reports whether b's storage is 8-byte aligned (mmap regions and
// Go heap allocations both are; this guards the unsafe views anyway).
func aligned8(b []byte) bool { return uintptr(unsafe.Pointer(&b[0]))%8 == 0 }

// aligned4 is aligned8 for 4-byte views.
func aligned4(b []byte) bool { return uintptr(unsafe.Pointer(&b[0]))%4 == 0 }
