// Package hashing provides the 64-bit and 128-bit hash functions used by the
// sketches and benchmarks in this repository.
//
// The paper relies on high-quality 64-bit hashes (WyHash, Komihash,
// PolymurHash are cited as known-good choices) and uses the 128-bit variant
// of Murmur3 for the cross-library performance comparison because Apache
// DataSketches hard-codes it. Both are implemented here from scratch on top
// of the standard library only:
//
//   - Wy64 / WyString: a wyhash-style mum-mixing hash, used as the default
//     hasher for the public API.
//   - SplitMix64: the standard 64-bit mixing sequence, used to derive
//     reproducible pseudo-random hash streams in simulations.
//   - Murmur3_128: MurmurHash3 x64/128, byte-compatible with the reference
//     implementation, used by the performance benchmarks.
package hashing

import (
	"encoding/binary"
	"math/bits"
)

// mum multiplies a and b to a 128-bit product and folds it to 64 bits by
// XORing the halves. This is the core mixing primitive of wyhash.
func mum(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// wyhash-style secret constants (odd, high-entropy).
const (
	wyp0 = 0xa0761d6478bd642f
	wyp1 = 0xe7037ed1a0b428db
	wyp2 = 0x8ebc6af09c88c6e3
	wyp3 = 0x589965cc75374cc3
)

// Wy64 hashes an arbitrary byte slice with the given seed to a uniformly
// distributed 64-bit value.
func Wy64(data []byte, seed uint64) uint64 {
	n := len(data)
	h := seed ^ wyp0
	switch {
	case n == 0:
		// fall through to finalization
	case n <= 8:
		var lo, hi uint64
		if n >= 4 {
			lo = uint64(binary.LittleEndian.Uint32(data))
			hi = uint64(binary.LittleEndian.Uint32(data[n-4:]))
		} else {
			lo = uint64(data[0])<<16 | uint64(data[n>>1])<<8 | uint64(data[n-1])
		}
		h = mum(lo^wyp1, hi^h)
	case n <= 16:
		h = mum(binary.LittleEndian.Uint64(data)^wyp1, binary.LittleEndian.Uint64(data[n-8:])^h)
	default:
		i := n
		p := data
		for i > 16 {
			h = mum(binary.LittleEndian.Uint64(p)^wyp1, binary.LittleEndian.Uint64(p[8:])^h)
			p = p[16:]
			i -= 16
		}
		h = mum(binary.LittleEndian.Uint64(data[n-16:])^wyp1, binary.LittleEndian.Uint64(data[n-8:])^h)
	}
	return mum(wyp1^uint64(n), h^wyp2)
}

// WyString hashes a string without allocating; it equals Wy64 of the
// string's bytes. The two stay two bodies on purpose. One generic body over
// string | []byte measured 2–3× slower at 16 B and above. WyString as Wy64
// over an unsafe.String view of the bytes was about 1.5× faster at 40 B and
// 2× at 200 B, but 0.4–1.1 ns slower at 16 B and below — where most keys
// and elements are — so merging them is a speed trade, not a clean-up.
func WyString(s string, seed uint64) uint64 {
	n := len(s)
	h := seed ^ wyp0
	switch {
	case n == 0:
	case n <= 8:
		var lo, hi uint64
		if n >= 4 {
			lo = uint64(le32s(s, 0))
			hi = uint64(le32s(s, n-4))
		} else {
			lo = uint64(s[0])<<16 | uint64(s[n>>1])<<8 | uint64(s[n-1])
		}
		h = mum(lo^wyp1, hi^h)
	case n <= 16:
		h = mum(le64s(s, 0)^wyp1, le64s(s, n-8)^h)
	default:
		i := 0
		for n-i > 16 {
			h = mum(le64s(s, i)^wyp1, le64s(s, i+8)^h)
			i += 16
		}
		h = mum(le64s(s, n-16)^wyp1, le64s(s, n-8)^h)
	}
	return mum(wyp1^uint64(n), h^wyp2)
}

func le32s(s string, i int) uint32 {
	return uint32(s[i]) | uint32(s[i+1])<<8 | uint32(s[i+2])<<16 | uint32(s[i+3])<<24
}

func le64s(s string, i int) uint64 {
	return uint64(le32s(s, i)) | uint64(le32s(s, i+4))<<32
}

// Wy64Uint64 hashes a single 64-bit value. It is the hash used for integer
// keys throughout the examples and simulations.
func Wy64Uint64(v, seed uint64) uint64 {
	return mum(wyp1^8, mum(v^wyp1, v^seed^wyp0)^wyp2)
}

// SplitMix64 advances the state and returns the next value of the SplitMix64
// sequence. It passes BigCrush and is the standard generator for seeding.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finalizer to v without advancing a state.
// It is a fast bijective mixer suitable for turning counters into
// uniformly distributed hash values.
func Mix64(v uint64) uint64 {
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}

// Murmur3_128 computes MurmurHash3 x64/128 of data with the given seed and
// returns both 64-bit halves. The first return value matches what Apache
// DataSketches uses as its 64-bit hash input.
func Murmur3_128(data []byte, seed uint64) (uint64, uint64) {
	const (
		c1 = 0x87c37b91114253d5
		c2 = 0x4cf5ad432745937f
	)
	h1 := seed
	h2 := seed
	n := len(data)
	nblocks := n / 16

	for i := 0; i < nblocks; i++ {
		k1 := binary.LittleEndian.Uint64(data[i*16:])
		k2 := binary.LittleEndian.Uint64(data[i*16+8:])

		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
		h1 = bits.RotateLeft64(h1, 27)
		h1 += h2
		h1 = h1*5 + 0x52dce729

		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
		h2 = bits.RotateLeft64(h2, 31)
		h2 += h1
		h2 = h2*5 + 0x38495ab5
	}

	tail := data[nblocks*16:]
	var k1, k2 uint64
	switch len(tail) & 15 {
	case 15:
		k2 ^= uint64(tail[14]) << 48
		fallthrough
	case 14:
		k2 ^= uint64(tail[13]) << 40
		fallthrough
	case 13:
		k2 ^= uint64(tail[12]) << 32
		fallthrough
	case 12:
		k2 ^= uint64(tail[11]) << 24
		fallthrough
	case 11:
		k2 ^= uint64(tail[10]) << 16
		fallthrough
	case 10:
		k2 ^= uint64(tail[9]) << 8
		fallthrough
	case 9:
		k2 ^= uint64(tail[8])
		k2 *= c2
		k2 = bits.RotateLeft64(k2, 33)
		k2 *= c1
		h2 ^= k2
		fallthrough
	case 8:
		k1 ^= uint64(tail[7]) << 56
		fallthrough
	case 7:
		k1 ^= uint64(tail[6]) << 48
		fallthrough
	case 6:
		k1 ^= uint64(tail[5]) << 40
		fallthrough
	case 5:
		k1 ^= uint64(tail[4]) << 32
		fallthrough
	case 4:
		k1 ^= uint64(tail[3]) << 24
		fallthrough
	case 3:
		k1 ^= uint64(tail[2]) << 16
		fallthrough
	case 2:
		k1 ^= uint64(tail[1]) << 8
		fallthrough
	case 1:
		k1 ^= uint64(tail[0])
		k1 *= c1
		k1 = bits.RotateLeft64(k1, 31)
		k1 *= c2
		h1 ^= k1
	}

	h1 ^= uint64(n)
	h2 ^= uint64(n)
	h1 += h2
	h2 += h1
	h1 = fmix64(h1)
	h2 = fmix64(h2)
	h1 += h2
	h2 += h1
	return h1, h2
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}
