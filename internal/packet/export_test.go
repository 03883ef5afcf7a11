package packet

// TTL returns the time-to-live field.
func (p IPv4) TTL() uint8 { return p[8] }

// OptTimestamps is the TCP timestamps option kind (RFC 7323), length 10.
const OptTimestamps = 8

// VerifyChecksum reports whether the stored checksum is consistent with the
// header bytes and pseudo-header sum.
func (t TCP) VerifyChecksum(pseudoSum uint32) bool {
	return ChecksumWith(t[:t.HeaderLen()], pseudoSum) == 0
}
