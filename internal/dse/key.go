package dse

import (
	"crypto/sha256"
	"encoding/hex"

	"gem5aladdin/internal/soc"
)

// PointKey returns the content address of one design point: a hex SHA-256
// over the kernel name and the canonical byte encoding of cfg
// (soc.Config.AppendCanonical). Two design points share a key iff they would
// simulate identically — every semantically relevant Config field is part of
// the encoding, observability attachments are not — so the key is safe to
// use for result caching and cross-request deduplication.
func PointKey(kernel string, cfg soc.Config) string {
	// Sized for a config with every pointer set (~1.6 KB of canonical
	// bytes), so the whole input is built and hashed on the stack.
	var buf [2048]byte
	b := append(buf[:0], kernel...)
	b = append(b, 0) // kernel-name/config domain separator
	sum := sha256.Sum256(cfg.AppendCanonical(b))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}
