package packet

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// The checksum code sums 32-bit words, derives the pseudo-header and the
// IPv4 and TCP headers' sums from their fields, and folds once at the end.
// These tests hold it to the byte-pair loop it replaced: every checksum it
// writes or returns must equal the one the oracle computes from the bytes.

// oracleSum is the byte-pair loop: one 16-bit word at a time into 32 bits, an
// odd trailing byte padded with zero.
func oracleSum(b []byte, acc uint32) uint32 {
	n := len(b)
	i := 0
	for ; i+1 < n; i += 2 {
		acc += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if i < n {
		acc += uint32(b[i]) << 8
	}
	return acc
}

func oracleFinish(acc uint32) uint16 {
	for acc > 0xffff {
		acc = (acc >> 16) + (acc & 0xffff)
	}
	return ^uint16(acc)
}

// oraclePseudo sums the pseudo-header from a 12-byte copy, as the header
// bytes lay it out.
func oraclePseudo(src, dst Addr, proto uint8, tcpLen uint16) uint32 {
	var ph [12]byte
	binary.BigEndian.PutUint32(ph[0:4], uint32(src))
	binary.BigEndian.PutUint32(ph[4:8], uint32(dst))
	ph[9] = proto
	binary.BigEndian.PutUint16(ph[10:12], tcpLen)
	return oracleSum(ph[:], 0)
}

// oracleBuild writes the IPv4 and TCP headers BuildIn writes, field by
// field, and checksums each from its bytes with the oracle.
func oracleBuild(src, dst Addr, ecn ECN, f TCPFields, payloadLen int) []byte {
	hdr := TCPHeaderLen + (len(f.Options)+3)&^3
	b := make([]byte, IPv4HeaderLen+hdr)
	b[0], b[1] = 0x45, uint8(ecn)
	binary.BigEndian.PutUint16(b[2:4], uint16(IPv4HeaderLen+hdr+payloadLen))
	binary.BigEndian.PutUint16(b[6:8], 0x4000)
	b[8], b[9] = 64, ProtoTCP
	binary.BigEndian.PutUint32(b[12:16], uint32(src))
	binary.BigEndian.PutUint32(b[16:20], uint32(dst))
	binary.BigEndian.PutUint16(b[10:12], oracleFinish(oracleSum(b[:IPv4HeaderLen], 0)))
	t := b[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(t[0:2], f.SrcPort)
	binary.BigEndian.PutUint16(t[2:4], f.DstPort)
	binary.BigEndian.PutUint32(t[4:8], f.Seq)
	binary.BigEndian.PutUint32(t[8:12], f.Ack)
	t[12], t[13] = uint8(hdr/4)<<4, f.Flags
	binary.BigEndian.PutUint16(t[14:16], f.Window)
	copy(t[TCPHeaderLen:], f.Options)
	for i := TCPHeaderLen + len(f.Options); i < hdr; i++ {
		t[i] = OptNOP
	}
	pseudo := oraclePseudo(src, dst, ProtoTCP, uint16(hdr+payloadLen))
	binary.BigEndian.PutUint16(t[16:18], oracleFinish(oracleSum(t, pseudo)))
	return b
}

// checkAgainstOracle compares Checksum, ChecksumWith and a chain of partial
// sums (sum) over b cut at the given points (any lengths, odd ones included) with the
// oracle.
func checkAgainstOracle(t *testing.T, b []byte, initial uint32, cuts []int) {
	t.Helper()
	if got, want := Checksum(b), oracleFinish(oracleSum(b, 0)); got != want {
		t.Fatalf("Checksum(% x) = %#04x, oracle %#04x", b, got, want)
	}
	if got, want := ChecksumWith(b, initial), oracleFinish(oracleSum(b, initial)); got != want {
		t.Fatalf("ChecksumWith(% x, %#x) = %#04x, oracle %#04x", b, initial, got, want)
	}
	acc, oracle, from := initial, initial, 0
	for _, to := range append(cuts, len(b)) {
		acc, oracle, from = sum(b[from:to], acc), oracleSum(b[from:to], oracle), to
	}
	if got, want := finish(acc), oracleFinish(oracle); got != want {
		t.Fatalf("partial-sum chain over % x cut at %v from %#x = %#04x, oracle %#04x", b, cuts, initial, got, want)
	}
}

// TestChecksumMatchesOracle: seeded buffers of every length up to 130, some
// all zero or all 0xff (the sums at the edges of one's complement), with and
// without an initial sum, cut into fragments of odd and even length.
func TestChecksumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for n := 0; n <= 130; n++ {
		for trial := 0; trial < 20; trial++ {
			b := make([]byte, n)
			switch trial {
			case 0: // all zero
			case 1:
				for i := range b {
					b[i] = 0xff
				}
			default:
				rng.Read(b)
			}
			var initial uint32
			if trial%3 == 2 { // a pseudo-header sum or a chained partial sum
				initial = rng.Uint32() >> (12 + rng.Intn(20))
			}
			var cuts []int
			for at := 0; n > 0 && at < n; {
				at += 1 + rng.Intn(9)
				if at < n {
					cuts = append(cuts, at)
				}
			}
			checkAgainstOracle(t, b, initial, cuts)
		}
	}
}

// TestPseudoHeaderSumMatchesOracle compares the address arithmetic with the
// sum over the 12-byte pseudo-header, edge values included.
func TestPseudoHeaderSumMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	edges := []Addr{0, 1, 0xffff, 0x10000, 0xffff_ffff, MakeAddr(10, 0, 0, 1)}
	for i := 0; i < 5000; i++ {
		src, dst := Addr(rng.Uint32()), Addr(rng.Uint32())
		if i < len(edges)*len(edges) {
			src, dst = edges[i/len(edges)], edges[i%len(edges)]
		}
		proto, tcpLen := uint8(rng.Intn(256)), uint16(rng.Intn(1<<16))
		ip := IPv4(make([]byte, IPv4HeaderLen))
		binary.BigEndian.PutUint32(ip[12:16], uint32(src))
		binary.BigEndian.PutUint32(ip[16:20], uint32(dst))
		ip[9] = proto
		got, want := ip.PseudoHeaderSum(tcpLen), oraclePseudo(src, dst, proto, tcpLen)
		if finish(got) != oracleFinish(want) {
			t.Fatalf("PseudoHeaderSum(%v, %v, %d, %d) = %#x, oracle %#x", src, dst, proto, tcpLen, got, want)
		}
	}
}

// TestBuildMatchesOracle: BuildIn, Build, and InitIPv4 with EncodeTCP
// directly, write exactly the oracle's bytes, checksums included, over
// seeded fields and every option length from 0 to 40.
func TestBuildMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	pool := NewPool()
	for optLen := 0; optLen <= 40; optLen++ {
		for trial := 0; trial < 50; trial++ {
			f := TCPFields{
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Seq: rng.Uint32(), Ack: rng.Uint32(),
				Flags: uint8(rng.Uint32()), Window: uint16(rng.Uint32()),
				Options: make([]byte, optLen),
			}
			rng.Read(f.Options)
			src, dst, ecn := Addr(rng.Uint32()), Addr(rng.Uint32()), ECN(rng.Intn(4))
			payload := rng.Intn(9000)
			if trial == 0 { // every field zero but the option bytes' lengths
				f = TCPFields{Options: make([]byte, optLen)}
				src, dst, ecn, payload = 0, 0, NotECT, 0
			}
			want := oracleBuild(src, dst, ecn, f, payload)
			p := BuildIn(pool, src, dst, ecn, f, payload)
			if !bytes.Equal(p.Buf, want) {
				t.Fatalf("BuildIn %+v %v>%v ecn %v payload %d:\n got % x\nwant % x", f, src, dst, ecn, payload, p.Buf, want)
			}
			if q := Build(src, dst, ecn, f, payload); !bytes.Equal(q.Buf, want) {
				t.Fatalf("Build %+v:\n got % x\nwant % x", f, q.Buf, want)
			}
			// Straight into a dirty buffer: neither writer may read a byte
			// it has not written.
			buf := bytes.Repeat([]byte{0xa5}, len(want))
			ip := InitIPv4(buf, src, dst, uint16(len(want)+payload), ecn)
			EncodeTCP(buf[IPv4HeaderLen:], f, ip.PseudoHeaderSum(uint16(len(want)-IPv4HeaderLen+payload)))
			if !bytes.Equal(buf, want) {
				t.Fatalf("InitIPv4+EncodeTCP over a dirty buffer %+v:\n got % x\nwant % x", f, buf, want)
			}
			if !p.IP().VerifyChecksum() || !p.TCP().VerifyChecksum(p.IP().PseudoHeaderSum(uint16(len(want)-IPv4HeaderLen+payload))) {
				t.Fatalf("BuildIn %+v: checksums do not verify", f)
			}
			pool.Put(p)
		}
	}
}

// FuzzChecksumMatchesOracle compares Checksum, ChecksumWith and a
// three-fragment chain of partial sums with the byte-pair oracle on any bytes.
func FuzzChecksumMatchesOracle(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint8(0), uint8(0))
	f.Add([]byte{0x01}, uint32(0xffff), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xff}, 61), uint32(0xffff_ffff), uint8(3), uint8(20))
	f.Add([]byte{0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11}, uint32(7), uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, b []byte, initial uint32, c1, c2 uint8) {
		// The oracle's 32-bit sum must not wrap: callers pass a partial sum
		// (a pseudo-header's is below 2^19) and headers are short.
		if len(b) > 1<<12 {
			b = b[:1<<12]
		}
		initial >>= 12
		cut1 := min(int(c1), len(b))
		cut2 := min(cut1+int(c2), len(b))
		checkAgainstOracle(t, b, initial, []int{cut1, cut2})
	})
}
