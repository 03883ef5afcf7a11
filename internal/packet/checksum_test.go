package packet

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style vector: header from Wikipedia's IPv4 checksum
	// example, whose checksum is 0xb861.
	h := []byte{
		0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
		0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8, 0x00, 0x01,
		0xc0, 0xa8, 0x00, 0xc7,
	}
	if got := Checksum(h); got != 0xb861 {
		t.Fatalf("Checksum = %#04x, want 0xb861", got)
	}
	// With the checksum in place, the sum verifies to zero.
	binary.BigEndian.PutUint16(h[10:12], 0xb861)
	if got := Checksum(h); got != 0 {
		t.Fatalf("verify = %#04x, want 0", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data is padded with a zero byte.
	if Checksum([]byte{0x01}) != Checksum([]byte{0x01, 0x00}) {
		t.Fatal("odd-length checksum does not match zero-padded checksum")
	}
}

func TestChecksumEmpty(t *testing.T) {
	if got := Checksum(nil); got != 0xffff {
		t.Fatalf("Checksum(nil) = %#04x, want 0xffff", got)
	}
}

// Property: incremental 16-bit update equals full recomputation, for any
// buffer, field position and new value.
func TestIncrementalUpdateProperty(t *testing.T) {
	prop := func(data []byte, posSeed uint16, newVal uint16) bool {
		if len(data) < 4 {
			data = append(data, 0, 0, 0, 0)
		}
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		pos := int(posSeed) % (len(data) / 2) * 2
		old := Checksum(data)
		from := binary.BigEndian.Uint16(data[pos : pos+2])
		binary.BigEndian.PutUint16(data[pos:pos+2], newVal)
		full := Checksum(data)
		inc := UpdateChecksum16(old, from, newVal)
		// Equivalence is modulo the 0x0000/0xffff ambiguity of one's
		// complement zero: both encode sum 0.
		return inc == full || (inc == 0xffff && full == 0x0000) || (inc == 0x0000 && full == 0xffff)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateChecksum8Pair(t *testing.T) {
	data := []byte{0x12, 0x34, 0x56, 0x78}
	old := Checksum(data)

	// Change the high octet of word 1.
	data[2] = 0xaa
	want := Checksum(data)
	got := UpdateChecksum8Pair(old, 0x56, 0xaa, true)
	if got != want {
		t.Fatalf("hi-octet incremental = %#04x, want %#04x", got, want)
	}

	// Change the low octet of word 0.
	old = want
	data[1] = 0x01
	want = Checksum(data)
	got = UpdateChecksum8Pair(old, 0x34, 0x01, false)
	if got != want {
		t.Fatalf("lo-octet incremental = %#04x, want %#04x", got, want)
	}
}

func TestPartialSumComposition(t *testing.T) {
	a := []byte{1, 2, 3, 4}
	b := []byte{5, 6, 7, 8}
	whole := Checksum(append(append([]byte{}, a...), b...))
	composed := finish(sum(b, sum(a, 0)))
	if whole != composed {
		t.Fatalf("composed = %#04x, want %#04x", composed, whole)
	}
}

func BenchmarkChecksumFull60(b *testing.B) {
	buf := make([]byte, 60)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

func BenchmarkChecksumIncremental(b *testing.B) {
	b.ReportAllocs()
	cs := uint16(0x1234)
	for i := 0; i < b.N; i++ {
		cs = UpdateChecksum16(cs, uint16(i), uint16(i+1))
	}
	_ = cs
}
