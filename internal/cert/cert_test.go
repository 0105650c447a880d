package cert

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"paramecium/internal/clock"
)

func TestPrivilegeHasAndString(t *testing.T) {
	p := PrivKernelResident | PrivDeviceAccess
	if !p.Has(PrivKernelResident) || !p.Has(PrivDeviceAccess) {
		t.Fatal("Has failed on present bits")
	}
	if p.Has(PrivSharedService) {
		t.Fatal("Has true for absent bit")
	}
	if got := p.String(); got != "kernel+device" {
		t.Fatalf("String = %q", got)
	}
	if got := Privilege(0).String(); got != "none" {
		t.Fatalf("zero String = %q", got)
	}
}

func TestDigestImageDeterministicAndCharged(t *testing.T) {
	meter := clock.NewMeter(clock.DefaultCosts())
	img := bytes.Repeat([]byte{7}, 256)
	d1 := DigestImage(meter, img)
	d2 := DigestImage(nil, img)
	if d1 != d2 {
		t.Fatal("digest not deterministic")
	}
	if got := meter.Count(clock.OpDigestBlock); got != 4 {
		t.Fatalf("blocks charged = %d, want 4", got)
	}
	// Empty image charges at least one block.
	DigestImage(meter, nil)
	if got := meter.Count(clock.OpDigestBlock); got != 5 {
		t.Fatalf("blocks after empty = %d, want 5", got)
	}
}

func TestCertificateMarshalRoundTrip(t *testing.T) {
	kp := GenerateKey(1)
	c := &Certificate{
		Component: "netfilter",
		Digest:    DigestImage(nil, []byte("image")),
		Privilege: PrivKernelResident | PrivSharedService,
		Issuer:    "compiler",
	}
	c.Signature = kp.Sign(c.SigningBytes())
	got, err := UnmarshalCertificate(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Component != c.Component || got.Digest != c.Digest ||
		got.Privilege != c.Privilege || got.Issuer != c.Issuer ||
		!bytes.Equal(got.Signature, c.Signature) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, c)
	}
}

func TestUnmarshalCertificateErrors(t *testing.T) {
	if _, err := UnmarshalCertificate([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := UnmarshalCertificate(nil); err == nil {
		t.Fatal("empty accepted")
	}
	// Truncated valid prefix.
	kp := GenerateKey(1)
	c := &Certificate{Component: "x", Issuer: "y"}
	c.Signature = kp.Sign(c.SigningBytes())
	full := c.Marshal()
	if _, err := UnmarshalCertificate(full[:len(full)-10]); err == nil {
		t.Fatal("truncated accepted")
	}
}

func TestGenerateKeyDeterministic(t *testing.T) {
	a, b := GenerateKey(7), GenerateKey(7)
	if !bytes.Equal(a.Pub, b.Pub) {
		t.Fatal("same seed, different keys")
	}
	c := GenerateKey(8)
	if bytes.Equal(a.Pub, c.Pub) {
		t.Fatal("different seeds, same key")
	}
}

func newTrust(t *testing.T) (*Authority, *Validator, *KeyCertifier) {
	t.Helper()
	auth := NewAuthority(100)
	meter := clock.NewMeter(clock.DefaultCosts())
	val := NewValidator(meter, auth.PublicKey())
	admin := NewKeyCertifier("sysadmin", GenerateKey(101), PrivKernelResident|PrivDeviceAccess|PrivSharedService)
	if err := val.AddDelegation(auth.Delegate("sysadmin", admin.Key().Pub, admin.max)); err != nil {
		t.Fatal(err)
	}
	return auth, val, admin
}

func TestValidateHappyPath(t *testing.T) {
	_, val, admin := newTrust(t)
	img := []byte("a trustworthy component")
	c, err := admin.Certify("drv", img, PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := val.Validate(img, c, PrivKernelResident); err != nil {
		t.Fatal(err)
	}
}

func TestValidateDigestMismatch(t *testing.T) {
	_, val, admin := newTrust(t)
	img := []byte("original")
	c, err := admin.Certify("drv", img, PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	tampered := []byte("originaX")
	if err := val.Validate(tampered, c, PrivKernelResident); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("tampered image: %v", err)
	}
}

func TestValidateForgedSignature(t *testing.T) {
	_, val, _ := newTrust(t)
	rogue := NewKeyCertifier("sysadmin", GenerateKey(999), PrivKernelResident) // wrong key, right name
	img := []byte("malware")
	c, err := rogue.Certify("mal", img, PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := val.Validate(img, c, PrivKernelResident); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("forged cert: %v", err)
	}
}

func TestValidateUnknownIssuer(t *testing.T) {
	_, val, _ := newTrust(t)
	stranger := NewKeyCertifier("stranger", GenerateKey(555), PrivKernelResident)
	img := []byte("x")
	c, _ := stranger.Certify("x", img, PrivKernelResident)
	if err := val.Validate(img, c, PrivKernelResident); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("unknown issuer: %v", err)
	}
}

func TestValidatePrivilegeExcess(t *testing.T) {
	auth := NewAuthority(1)
	val := NewValidator(nil, auth.PublicKey())
	// Delegate limited to device access only.
	lim := NewKeyCertifier("tester", GenerateKey(2), PrivDeviceAccess)
	if err := val.AddDelegation(auth.Delegate("tester", lim.Key().Pub, PrivDeviceAccess)); err != nil {
		t.Fatal(err)
	}
	// Forge a cert where the delegate grants beyond its mask. Certify
	// itself refuses, so build it manually.
	img := []byte("img")
	c := &Certificate{Component: "x", Digest: DigestImage(nil, img), Privilege: PrivKernelResident, Issuer: "tester"}
	c.Signature = lim.Key().Sign(c.SigningBytes())
	if err := val.Validate(img, c, PrivKernelResident); !errors.Is(err, ErrPrivilegeExcess) {
		t.Fatalf("excess: %v", err)
	}
}

func TestValidateInsufficientPrivilege(t *testing.T) {
	_, val, admin := newTrust(t)
	img := []byte("img")
	c, err := admin.Certify("x", img, PrivDeviceAccess)
	if err != nil {
		t.Fatal(err)
	}
	if err := val.Validate(img, c, PrivKernelResident); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("insufficient: %v", err)
	}
}

func TestValidationCache(t *testing.T) {
	auth := NewAuthority(1)
	meter := clock.NewMeter(clock.DefaultCosts())
	val := NewValidator(meter, auth.PublicKey())
	admin := NewKeyCertifier("admin", GenerateKey(2), PrivKernelResident)
	if err := val.AddDelegation(auth.Delegate("admin", admin.Key().Pub, PrivKernelResident)); err != nil {
		t.Fatal(err)
	}
	img := []byte("cached component")
	c, err := admin.Certify("x", img, PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := val.Validate(img, c, PrivKernelResident); err != nil {
		t.Fatal(err)
	}
	verifies := meter.Count(clock.OpSigVerify)
	for i := 0; i < 5; i++ {
		if err := val.Validate(img, c, PrivKernelResident); err != nil {
			t.Fatal(err)
		}
	}
	if meter.Count(clock.OpSigVerify) != verifies {
		t.Fatal("cached validations re-verified signatures")
	}
	hits, misses := val.cacheHits, val.cacheMisses
	if hits != 5 || misses != 1 {
		t.Fatalf("cache stats = %d hits / %d misses", hits, misses)
	}
	// Cached result still enforces privilege.
	if err := val.Validate(img, c, PrivKernelResident|PrivDeviceAccess); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("cached insufficient: %v", err)
	}
	val.InvalidateCache()
	if err := val.Validate(img, c, PrivKernelResident); err != nil {
		t.Fatal(err)
	}
	if meter.Count(clock.OpSigVerify) == verifies {
		t.Fatal("validation after invalidate did not re-verify")
	}
}

func TestDelegationChain(t *testing.T) {
	auth := NewAuthority(1)
	val := NewValidator(nil, auth.PublicKey())
	// authority -> department -> lab -> grad-student
	dept := GenerateKey(10)
	lab := GenerateKey(11)
	grad := GenerateKey(12)
	dDept := auth.Delegate("department", dept.Pub, PrivKernelResident|PrivDeviceAccess)
	if err := val.AddDelegation(dDept); err != nil {
		t.Fatal(err)
	}
	dLab := SubDelegate(dDept, dept, "lab", lab.Pub, PrivKernelResident)
	if err := val.AddDelegation(dLab); err != nil {
		t.Fatal(err)
	}
	dGrad := SubDelegate(dLab, lab, "grad-student", grad.Pub, PrivKernelResident)
	if err := val.AddDelegation(dGrad); err != nil {
		t.Fatal(err)
	}
	// The grad student can now certify kernel components.
	gradCert := NewKeyCertifier("grad-student", grad, PrivKernelResident)
	img := []byte("thesis code")
	c, err := gradCert.Certify("thesis", img, PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := val.Validate(img, c, PrivKernelResident); err != nil {
		t.Fatal(err)
	}
}

func TestSubDelegationCannotEscalate(t *testing.T) {
	auth := NewAuthority(1)
	val := NewValidator(nil, auth.PublicKey())
	dept := GenerateKey(10)
	dDept := auth.Delegate("department", dept.Pub, PrivDeviceAccess) // no kernel bit
	if err := val.AddDelegation(dDept); err != nil {
		t.Fatal(err)
	}
	evil := GenerateKey(11)
	dEvil := SubDelegate(dDept, dept, "evil", evil.Pub, PrivKernelResident)
	if err := val.AddDelegation(dEvil); !errors.Is(err, ErrPrivilegeExcess) {
		t.Fatalf("escalating sub-delegation: %v", err)
	}
}

func TestAddDelegationBadSignature(t *testing.T) {
	auth := NewAuthority(1)
	otherAuth := NewAuthority(2)
	val := NewValidator(nil, auth.PublicKey())
	k := GenerateKey(3)
	d := otherAuth.Delegate("imposter", k.Pub, PrivKernelResident)
	if err := val.AddDelegation(d); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("foreign delegation: %v", err)
	}
	// Unknown intermediate issuer.
	d2 := &Delegation{Delegate: "x", Key: k.Pub, MaxPrivilege: 0, Issuer: "ghost"}
	if err := val.AddDelegation(d2); !errors.Is(err, ErrUnknownIssuer) {
		t.Fatalf("ghost issuer: %v", err)
	}
}

func TestKeyCertifierRefusesBeyondMask(t *testing.T) {
	kc := NewKeyCertifier("limited", GenerateKey(1), PrivDeviceAccess)
	_, err := kc.Certify("x", []byte("i"), PrivKernelResident)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("beyond mask: %v", err)
	}
}

func TestKeyCertifierPolicy(t *testing.T) {
	kc := NewKeyCertifier("compiler", GenerateKey(1), PrivKernelResident)
	kc.Policy = func(component string, image []byte) bool {
		return bytes.HasPrefix(image, []byte("SAFE")) // models "compiled by me"
	}
	if _, err := kc.Certify("x", []byte("UNSAFE..."), PrivKernelResident); !errors.Is(err, ErrRefused) {
		t.Fatalf("policy reject: %v", err)
	}
	if _, err := kc.Certify("x", []byte("SAFE..."), PrivKernelResident); err != nil {
		t.Fatalf("policy accept: %v", err)
	}
}

func TestEscapeHatchFallsThrough(t *testing.T) {
	prover := NewKeyCertifier("prover", GenerateKey(1), PrivKernelResident)
	prover.Policy = func(string, []byte) bool { return false } // can never finish the proof
	admin := NewKeyCertifier("sysadmin", GenerateKey(2), PrivKernelResident)
	hatch := NewEscapeHatch(prover, admin)

	c, err := hatch.Certify("drv", []byte("driver"), PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if c.Issuer != "sysadmin" {
		t.Fatalf("issuer = %q, want fallthrough to sysadmin", c.Issuer)
	}
	if names := hatch.Names(); len(names) != 2 || names[0] != "prover" {
		t.Fatalf("Names = %v", names)
	}
}

func TestEscapeHatchPreferenceOrder(t *testing.T) {
	prover := NewKeyCertifier("prover", GenerateKey(1), PrivKernelResident)
	admin := NewKeyCertifier("sysadmin", GenerateKey(2), PrivKernelResident)
	hatch := NewEscapeHatch(prover, admin)
	c, err := hatch.Certify("drv", []byte("driver"), PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if c.Issuer != "prover" {
		t.Fatalf("issuer = %q, want first preference", c.Issuer)
	}
}

func TestEscapeHatchAllRefuse(t *testing.T) {
	a := NewKeyCertifier("a", GenerateKey(1), PrivKernelResident)
	a.Policy = func(string, []byte) bool { return false }
	b := NewKeyCertifier("b", GenerateKey(2), PrivKernelResident)
	b.Policy = func(string, []byte) bool { return false }
	hatch := NewEscapeHatch(a, b)
	_, err := hatch.Certify("x", []byte("i"), PrivKernelResident)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("all refuse: %v", err)
	}
	// Both refusals should be reported.
	if !strings.Contains(err.Error(), `"a"`) || !strings.Contains(err.Error(), `"b"`) {
		t.Fatalf("refusal message incomplete: %v", err)
	}
}

func TestEscapeHatchEmpty(t *testing.T) {
	hatch := NewEscapeHatch()
	if _, err := hatch.Certify("x", nil, 0); !errors.Is(err, ErrRefused) {
		t.Fatalf("empty hatch: %v", err)
	}
}

type abortCertifier struct{}

func (abortCertifier) Name() string { return "broken" }
func (abortCertifier) Certify(string, []byte, Privilege) (*Certificate, error) {
	return nil, errors.New("hardware security module on fire")
}

func TestEscapeHatchAbortsOnHardError(t *testing.T) {
	admin := NewKeyCertifier("admin", GenerateKey(1), PrivKernelResident)
	hatch := NewEscapeHatch(abortCertifier{}, admin)
	_, err := hatch.Certify("x", []byte("i"), PrivKernelResident)
	if err == nil || errors.Is(err, ErrRefused) {
		t.Fatalf("hard error should abort, got %v", err)
	}
}

// Property: any certificate issued by a registered delegate validates
// against the matching image and fails against any different image.
func TestCertifyValidateProperty(t *testing.T) {
	auth := NewAuthority(42)
	val := NewValidator(nil, auth.PublicKey())
	admin := NewKeyCertifier("admin", GenerateKey(43), PrivKernelResident|PrivDeviceAccess|PrivSharedService)
	if err := val.AddDelegation(auth.Delegate("admin", admin.Key().Pub, PrivKernelResident|PrivDeviceAccess|PrivSharedService)); err != nil {
		t.Fatal(err)
	}
	f := func(img []byte, extra byte) bool {
		c, err := admin.Certify("p", img, PrivKernelResident)
		if err != nil {
			return false
		}
		if val.Validate(img, c, PrivKernelResident) != nil {
			return false
		}
		mutated := append(append([]byte{}, img...), extra)
		return errors.Is(val.Validate(mutated, c, PrivKernelResident), ErrDigestMismatch)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
