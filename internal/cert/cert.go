// Package cert implements the Paramecium certification service: the
// mechanism that decides whether a component is trustworthy enough to
// run inside the kernel protection domain.
//
// A certificate binds a message digest of the component image to a
// privilege level and is signed, via public-key cryptography, by a
// certification authority or one of its delegates. Delegates receive
// their power through delegation certificates forming a chain back to
// the authority, in the style of the Taos authentication work the
// paper cites. Because the certificate includes the digest, "it is
// impossible to modify the component after it has been certified."
//
// Delegates are ordered by preference and form an escape hatch: when
// one refuses to certify (e.g. an automated prover that cannot finish
// a proof), the next is tried — down to, in the paper's words, the
// system administrator or "even graduate students".
package cert

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"paramecium/internal/clock"
)

// Privilege is the capability a certificate grants to a component.
type Privilege uint32

// Privilege bits. A component's certificate must carry every privilege
// bit the requested placement needs, and a delegate may only grant
// bits inside its own delegated mask.
const (
	// PrivKernelResident allows loading into the kernel protection
	// domain.
	PrivKernelResident Privilege = 1 << iota
	// PrivDeviceAccess allows allocating I/O space and registering
	// interrupt handlers.
	PrivDeviceAccess
	// PrivSharedService allows the component to be bound by contexts
	// other than its loader (shared drivers, protocol stacks).
	PrivSharedService
)

// Has reports whether p contains every bit of want.
func (p Privilege) Has(want Privilege) bool { return p&want == want }

// String renders the privilege set.
func (p Privilege) String() string {
	if p == 0 {
		return "none"
	}
	var b bytes.Buffer
	add := func(s string) {
		if b.Len() > 0 {
			b.WriteByte('+')
		}
		b.WriteString(s)
	}
	if p.Has(PrivKernelResident) {
		add("kernel")
	}
	if p.Has(PrivDeviceAccess) {
		add("device")
	}
	if p.Has(PrivSharedService) {
		add("shared")
	}
	return b.String()
}

// DigestSize is the size of a component digest in bytes.
const DigestSize = sha256.Size

// Digest is a message digest of a component image.
type Digest [DigestSize]byte

// DigestImage computes the digest of an image, charging one digest
// block per 64 bytes on the meter (nil meter skips accounting).
func DigestImage(meter *clock.Meter, image []byte) Digest {
	if meter != nil {
		blocks := uint64(len(image)+63) / 64
		if blocks == 0 {
			blocks = 1
		}
		meter.ChargeNFor(clock.KernelDomain, clock.OpDigestBlock, blocks)
	}
	return sha256.Sum256(image)
}

// Certificate states that the component whose image hashes to Digest
// may run with the given privileges, vouched for by Issuer.
type Certificate struct {
	// Component is the component (class) name being certified.
	Component string
	// Digest is the SHA-256 of the certified image.
	Digest Digest
	// Privilege is the granted capability set.
	Privilege Privilege
	// Issuer names the delegate that signed the certificate.
	Issuer string
	// Signature is the Ed25519 signature over SigningBytes by the
	// issuer's key.
	Signature []byte
}

const certMagic = "PMCERT1\x00"

// SigningBytes returns the canonical byte string that is signed. The
// encoding is deterministic: magic, component, privilege, digest.
func (c *Certificate) SigningBytes() []byte {
	var b bytes.Buffer
	b.WriteString(certMagic)
	writeLenPrefixed(&b, []byte(c.Component))
	binary.Write(&b, binary.BigEndian, uint32(c.Privilege))
	b.Write(c.Digest[:])
	writeLenPrefixed(&b, []byte(c.Issuer))
	return b.Bytes()
}

// Delegation states that the named delegate's public key may issue
// certificates carrying privileges within MaxPrivilege. It is signed
// by the certification authority (or, for chains, by another
// delegate).
type Delegation struct {
	// Delegate names the subordinate (e.g. "type-safe-compiler",
	// "sysadmin").
	Delegate string
	// Key is the delegate's Ed25519 public key.
	Key ed25519.PublicKey
	// MaxPrivilege bounds what the delegate may grant.
	MaxPrivilege Privilege
	// Issuer names the signer: "" (or AuthorityName) for the root
	// authority, otherwise the parent delegate in a chain.
	Issuer string
	// Signature is over SigningBytes by the issuer's key.
	Signature []byte
}

const delegMagic = "PMDELEG1"

// SigningBytes returns the canonical signed encoding of the
// delegation.
func (d *Delegation) SigningBytes() []byte {
	var b bytes.Buffer
	b.WriteString(delegMagic)
	writeLenPrefixed(&b, []byte(d.Delegate))
	writeLenPrefixed(&b, d.Key)
	binary.Write(&b, binary.BigEndian, uint32(d.MaxPrivilege))
	writeLenPrefixed(&b, []byte(d.Issuer))
	return b.Bytes()
}

func writeLenPrefixed(b *bytes.Buffer, p []byte) {
	binary.Write(b, binary.BigEndian, uint32(len(p)))
	b.Write(p)
}

// Marshal encodes a certificate for storage in a component repository.
func (c *Certificate) Marshal() []byte {
	var b bytes.Buffer
	b.Write(c.SigningBytes())
	writeLenPrefixed(&b, c.Signature)
	return b.Bytes()
}

// UnmarshalCertificate decodes a certificate produced by Marshal.
func UnmarshalCertificate(data []byte) (*Certificate, error) {
	r := bytes.NewReader(data)
	magic := make([]byte, len(certMagic))
	if _, err := r.Read(magic); err != nil || string(magic) != certMagic {
		return nil, errors.New("cert: bad certificate magic")
	}
	c := &Certificate{}
	comp, err := readLenPrefixed(r)
	if err != nil {
		return nil, fmt.Errorf("cert: component: %w", err)
	}
	c.Component = string(comp)
	var priv uint32
	if err := binary.Read(r, binary.BigEndian, &priv); err != nil {
		return nil, fmt.Errorf("cert: privilege: %w", err)
	}
	c.Privilege = Privilege(priv)
	if _, err := r.Read(c.Digest[:]); err != nil {
		return nil, fmt.Errorf("cert: digest: %w", err)
	}
	issuer, err := readLenPrefixed(r)
	if err != nil {
		return nil, fmt.Errorf("cert: issuer: %w", err)
	}
	c.Issuer = string(issuer)
	sig, err := readLenPrefixed(r)
	if err != nil {
		return nil, fmt.Errorf("cert: signature: %w", err)
	}
	c.Signature = sig
	return c, nil
}

func readLenPrefixed(r *bytes.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.BigEndian, &n); err != nil {
		return nil, err
	}
	if int(n) > r.Len() {
		return nil, errors.New("length prefix exceeds data")
	}
	p := make([]byte, n)
	if _, err := r.Read(p); err != nil {
		return nil, err
	}
	return p, nil
}

// KeyPair is an Ed25519 signing key pair.
type KeyPair struct {
	Pub  ed25519.PublicKey
	Priv ed25519.PrivateKey
}

// GenerateKey derives a key pair deterministically from a seed,
// keeping all experiments reproducible. Production use would draw the
// seed from crypto/rand.
func GenerateKey(seed uint64) KeyPair {
	r := clock.NewRand(seed)
	s := make([]byte, ed25519.SeedSize)
	r.Bytes(s)
	priv := ed25519.NewKeyFromSeed(s)
	return KeyPair{Pub: priv.Public().(ed25519.PublicKey), Priv: priv}
}

// Sign signs msg with the pair's private key.
func (k KeyPair) Sign(msg []byte) []byte {
	return ed25519.Sign(k.Priv, msg)
}
