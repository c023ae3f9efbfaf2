package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Binary serialization, used by the MPI substrate to move HP partial sums
// between ranks and usable for checkpointing. Two layers are provided: a
// self-describing envelope (MarshalBinary/UnmarshalBinary) and a raw limb
// encoding (AppendRawLimbs/SetRawLimbs) for hot paths where both sides
// already agree on Params.

const marshalVersion = 1

// MarshaledSize returns the length in bytes of the self-describing encoding
// for parameters p.
func MarshaledSize(p Params) int { return 5 + 8*p.N }

// MarshalBinary encodes x as version(1) | N(2, big-endian) | K(2) | limbs
// (8 bytes each, big-endian, most significant limb first). A format whose N
// or K does not fit the 16-bit fields has no envelope and is an error.
func (x *HP) MarshalBinary() ([]byte, error) {
	if x.p.N > math.MaxUint16 || x.p.K > math.MaxUint16 {
		return nil, fmt.Errorf("core: (N=%d,k=%d) does not fit the HP encoding's 16-bit fields", x.p.N, x.p.K)
	}
	buf := make([]byte, 0, MarshaledSize(x.p))
	buf = append(buf, marshalVersion)
	buf = binary.BigEndian.AppendUint16(buf, uint16(x.p.N))
	buf = binary.BigEndian.AppendUint16(buf, uint16(x.p.K))
	return x.AppendRawLimbs(buf), nil
}

// UnmarshalBinary decodes data produced by MarshalBinary, replacing x's
// parameters and limbs.
func (x *HP) UnmarshalBinary(data []byte) error {
	if len(data) < 5 {
		return fmt.Errorf("core: truncated HP encoding (%d bytes)", len(data))
	}
	if data[0] != marshalVersion {
		return fmt.Errorf("core: unknown HP encoding version %d", data[0])
	}
	p := Params{
		N: int(binary.BigEndian.Uint16(data[1:3])),
		K: int(binary.BigEndian.Uint16(data[3:5])),
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if want := MarshaledSize(p); len(data) != want {
		return fmt.Errorf("core: HP encoding length %d, want %d", len(data), want)
	}
	x.p = p
	x.limbs = make([]uint64, p.N)
	return x.SetRawLimbs(data[5:])
}

// AppendRawLimbs appends the 8*N-byte big-endian limb image of x to buf and
// returns the extended slice.
func (x *HP) AppendRawLimbs(buf []byte) []byte {
	for _, l := range x.limbs {
		buf = binary.BigEndian.AppendUint64(buf, l)
	}
	return buf
}

// SetRawLimbs replaces x's limbs from an 8*N-byte big-endian image, leaving
// the parameters unchanged.
func (x *HP) SetRawLimbs(data []byte) error {
	if len(data) != 8*x.p.N {
		return fmt.Errorf("core: raw limb length %d, want %d", len(data), 8*x.p.N)
	}
	for i := range x.limbs {
		x.limbs[i] = binary.BigEndian.Uint64(data[8*i:])
	}
	return nil
}

// MarshalText encodes x as "hp:N,k:l0.l1...." with hex limbs (most
// significant first) — the human-diffable form used by reproducibility
// certificates (cmd/verify): two machines computed the same sum iff the
// strings are byte-identical.
func (x *HP) MarshalText() ([]byte, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "hp:%d,%d:", x.p.N, x.p.K)
	for i, l := range x.limbs {
		if i > 0 {
			sb.WriteByte('.')
		}
		fmt.Fprintf(&sb, "%016x", l)
	}
	return []byte(sb.String()), nil
}

// UnmarshalText decodes the MarshalText form, replacing x's parameters and
// limbs.
func (x *HP) UnmarshalText(text []byte) error {
	s := string(text)
	parts := strings.Split(s, ":")
	if len(parts) != 3 || parts[0] != "hp" {
		return fmt.Errorf("core: malformed HP text %q", s)
	}
	nk := strings.Split(parts[1], ",")
	if len(nk) != 2 {
		return fmt.Errorf("core: malformed HP params in %q", s)
	}
	n, err := strconv.Atoi(nk[0])
	if err != nil || strconv.Itoa(n) != nk[0] {
		return fmt.Errorf("core: bad N %q in %q", nk[0], s)
	}
	k, err := strconv.Atoi(nk[1])
	if err != nil || strconv.Itoa(k) != nk[1] {
		return fmt.Errorf("core: bad k %q in %q", nk[1], s)
	}
	p := Params{N: n, K: k}
	if err := p.Validate(); err != nil {
		return err
	}
	hexLimbs := strings.Split(parts[2], ".")
	if len(hexLimbs) != p.N {
		return fmt.Errorf("core: %d limbs in text, want %d", len(hexLimbs), p.N)
	}
	limbs := make([]uint64, p.N)
	for i, h := range hexLimbs {
		if len(h) != 16 {
			return fmt.Errorf("core: limb %d has %d hex digits, want 16", i, len(h))
		}
		// Strict lowercase hex only: a certificate is compared byte-for-byte,
		// so every accepted text must re-encode to itself.
		for _, c := range []byte(h) {
			if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
				return fmt.Errorf("core: limb %d in %q is not lowercase hex", i, s)
			}
		}
		v, err := strconv.ParseUint(h, 16, 64)
		if err != nil {
			return fmt.Errorf("core: bad limb %d in %q: %v", i, s, err)
		}
		limbs[i] = v
	}
	x.p = p
	x.limbs = limbs
	return nil
}
