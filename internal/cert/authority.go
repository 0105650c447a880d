package cert

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"

	"paramecium/internal/clock"
)

// AuthorityName is the issuer name of the root certification
// authority.
const AuthorityName = "authority"

// Authority is the root of trust. It never certifies components
// directly; it only issues delegations (possibly chained).
type Authority struct {
	key KeyPair
}

// NewAuthority creates a root authority with a deterministic key.
func NewAuthority(seed uint64) *Authority {
	return &Authority{key: GenerateKey(seed)}
}

// PublicKey returns the authority's verification key, which the
// kernel's validator is configured with at boot.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.key.Pub }

// Delegate issues a delegation for a subordinate key, bounded by
// maxPriv.
func (a *Authority) Delegate(name string, key ed25519.PublicKey, maxPriv Privilege) *Delegation {
	d := &Delegation{Delegate: name, Key: key, MaxPrivilege: maxPriv, Issuer: AuthorityName}
	d.Signature = a.key.Sign(d.SigningBytes())
	return d
}

// SubDelegate lets an existing delegate (holding parentKey, named in
// parent) issue a further delegation, forming a chain. The
// sub-delegation cannot exceed the parent's own privilege mask — the
// validator enforces monotonicity when walking the chain.
func SubDelegate(parent *Delegation, parentKey KeyPair, name string, key ed25519.PublicKey, maxPriv Privilege) *Delegation {
	d := &Delegation{Delegate: name, Key: key, MaxPrivilege: maxPriv, Issuer: parent.Delegate}
	d.Signature = ed25519.Sign(parentKey.Priv, d.SigningBytes())
	return d
}

// Validation errors.
var (
	ErrDigestMismatch  = errors.New("cert: image digest does not match certificate")
	ErrBadSignature    = errors.New("cert: signature verification failed")
	ErrUnknownIssuer   = errors.New("cert: issuer has no registered delegation")
	ErrPrivilegeExcess = errors.New("cert: certificate grants more than the delegate may")
	ErrChainTooDeep    = errors.New("cert: delegation chain too deep")
	ErrInsufficient    = errors.New("cert: certificate lacks a required privilege")
)

// MaxChainDepth bounds delegation chain walks.
const MaxChainDepth = 8

// Validator is the kernel-resident checker: it holds the authority's
// public key, the set of delegations presented at boot or load time,
// and a digest-keyed cache of validation results. "After a
// component's certificate is validated by the kernel it does not
// require any further software checks" — the cache is what makes
// reloading a certified component nearly free.
type Validator struct {
	meter        *clock.Meter
	authorityKey ed25519.PublicKey

	mu          sync.RWMutex
	delegations map[string]*Delegation // by delegate name
	cache       map[Digest]Privilege   // validated digest -> privilege
	cacheHits   uint64
	cacheMisses uint64
}

// NewValidator builds a validator trusting the given authority key.
func NewValidator(meter *clock.Meter, authorityKey ed25519.PublicKey) *Validator {
	return &Validator{
		meter:        meter,
		authorityKey: authorityKey,
		delegations:  make(map[string]*Delegation),
		cache:        make(map[Digest]Privilege),
	}
}

// AddDelegation registers a delegation after verifying its own chain
// of signatures back to the authority.
func (v *Validator) AddDelegation(d *Delegation) error {
	if err := v.verifyDelegation(d, 0); err != nil {
		return err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.delegations[d.Delegate] = d
	return nil
}

// verifyDelegation checks the signature on d and, recursively, on its
// issuer chain, enforcing privilege monotonicity.
func (v *Validator) verifyDelegation(d *Delegation, depth int) error {
	if depth >= MaxChainDepth {
		return ErrChainTooDeep
	}
	msg := d.SigningBytes()
	if d.Issuer == AuthorityName || d.Issuer == "" {
		v.chargeVerify()
		if !ed25519.Verify(v.authorityKey, msg, d.Signature) {
			return fmt.Errorf("%w: delegation %q by authority", ErrBadSignature, d.Delegate)
		}
		return nil
	}
	v.mu.RLock()
	parent, ok := v.delegations[d.Issuer]
	v.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q (issuing %q)", ErrUnknownIssuer, d.Issuer, d.Delegate)
	}
	if !parent.MaxPrivilege.Has(d.MaxPrivilege) {
		return fmt.Errorf("%w: %q grants %v beyond parent %q's %v",
			ErrPrivilegeExcess, d.Delegate, d.MaxPrivilege, parent.Delegate, parent.MaxPrivilege)
	}
	v.chargeVerify()
	if !ed25519.Verify(parent.Key, msg, d.Signature) {
		return fmt.Errorf("%w: delegation %q by %q", ErrBadSignature, d.Delegate, d.Issuer)
	}
	// The parent was verified when it was added; stop here. (Chains
	// deeper than one level are built by adding each link in order.)
	return nil
}

// ChainDepth reports how many delegation links lie between the named
// delegate and the authority (1 for a direct delegate). It returns 0
// for unknown delegates.
func (v *Validator) ChainDepth(delegate string) int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	depth := 0
	name := delegate
	for depth < MaxChainDepth {
		d, ok := v.delegations[name]
		if !ok {
			return 0
		}
		depth++
		if d.Issuer == AuthorityName || d.Issuer == "" {
			return depth
		}
		name = d.Issuer
	}
	return depth
}

func (v *Validator) chargeVerify() {
	if v.meter != nil {
		v.meter.ChargeFor(clock.KernelDomain, clock.OpSigVerify)
	}
}

// Validate checks that cert covers image and carries at least the
// required privileges. On success the digest is cached so that
// subsequent loads of the same image skip all cryptography.
func (v *Validator) Validate(image []byte, c *Certificate, required Privilege) error {
	digest := DigestImage(v.meter, image)
	if digest != c.Digest {
		return fmt.Errorf("%w: component %q", ErrDigestMismatch, c.Component)
	}

	v.mu.RLock()
	cached, hit := v.cache[digest]
	v.mu.RUnlock()
	if hit {
		v.mu.Lock()
		v.cacheHits++
		v.mu.Unlock()
		if !cached.Has(required) {
			return fmt.Errorf("%w: cached %v, need %v", ErrInsufficient, cached, required)
		}
		return nil
	}
	v.mu.Lock()
	v.cacheMisses++
	v.mu.Unlock()

	v.mu.RLock()
	deleg, ok := v.delegations[c.Issuer]
	v.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIssuer, c.Issuer)
	}
	if !deleg.MaxPrivilege.Has(c.Privilege) {
		return fmt.Errorf("%w: cert grants %v, delegate %q limited to %v",
			ErrPrivilegeExcess, c.Privilege, deleg.Delegate, deleg.MaxPrivilege)
	}
	v.chargeVerify()
	if !ed25519.Verify(deleg.Key, c.SigningBytes(), c.Signature) {
		return fmt.Errorf("%w: certificate for %q by %q", ErrBadSignature, c.Component, c.Issuer)
	}
	if !c.Privilege.Has(required) {
		return fmt.Errorf("%w: cert grants %v, need %v", ErrInsufficient, c.Privilege, required)
	}

	v.mu.Lock()
	v.cache[digest] = c.Privilege
	v.mu.Unlock()
	return nil
}

// CacheStats reports validation-cache hits and misses.
func (v *Validator) CacheStats() (hits, misses uint64) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.cacheHits, v.cacheMisses
}

// InvalidateCache drops all cached validations (e.g. after key
// revocation).
func (v *Validator) InvalidateCache() {
	v.mu.Lock()
	defer v.mu.Unlock()
	clear(v.cache)
}
