package repoz

import (
	"errors"
	"testing"

	"paramecium/internal/cert"
	"paramecium/internal/obj"
	"paramecium/internal/sandbox"
)

func pvmImage(name string) *Image {
	prog := sandbox.MustAssemble("loadi r0, 1\nhalt r0")
	return &Image{Name: name, Kind: KindPVM, Data: prog.Encode()}
}

func TestAddGet(t *testing.T) {
	r := New()
	img := pvmImage("filter")
	if err := r.Add(img); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get("filter")
	if err != nil || got != img {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if err := r.Add(pvmImage("filter")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := r.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
}

func TestAddValidation(t *testing.T) {
	r := New()
	if err := r.Add(nil); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("nil: %v", err)
	}
	if err := r.Add(&Image{Name: "", Kind: KindPVM}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("unnamed: %v", err)
	}
	if err := r.Add(&Image{Name: "x", Kind: Kind("weird")}); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad kind: %v", err)
	}
}

func TestList(t *testing.T) {
	r := New()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if err := r.Add(pvmImage(n)); err != nil {
			t.Fatal(err)
		}
	}
	got := r.List()
	want := []string{"alpha", "mid", "zeta"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v", got)
		}
	}
}

func TestCertify(t *testing.T) {
	r := New()
	img := pvmImage("driver")
	if err := r.Add(img); err != nil {
		t.Fatal(err)
	}
	admin := cert.NewKeyCertifier("admin", cert.GenerateKey(1), cert.PrivKernelResident)
	c, err := admin.Certify("driver", img.Data, cert.PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Certify("driver", c); err != nil {
		t.Fatal(err)
	}
	got, _ := r.Get("driver")
	if got.Cert != c {
		t.Fatal("certificate not attached")
	}
	// Certificate over different bytes is rejected.
	other, err := admin.Certify("driver", []byte("other bytes"), cert.PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Certify("driver", other); err == nil {
		t.Fatal("mismatched certificate accepted")
	}
	if err := r.Certify("ghost", c); !errors.Is(err, ErrNotFound) {
		t.Fatalf("certify missing: %v", err)
	}
}

func TestConstructor(t *testing.T) {
	r := New()
	if err := r.Add(&Image{Name: "alloc", Kind: KindNative, Data: []byte("cfg")}); err != nil {
		t.Fatal(err)
	}
	var gotData []byte
	if err := r.RegisterConstructor("alloc", func(data []byte) (obj.Instance, error) {
		gotData = data
		return obj.New("alloc", nil), nil
	}); err != nil {
		t.Fatal(err)
	}
	inst, err := r.Construct("alloc")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Class() != "alloc" || string(gotData) != "cfg" {
		t.Fatalf("constructed %v with data %q", inst.Class(), gotData)
	}
	// Error paths.
	if err := r.RegisterConstructor("alloc", func([]byte) (obj.Instance, error) { return nil, nil }); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate ctor: %v", err)
	}
	if err := r.RegisterConstructor("x", nil); err == nil {
		t.Fatal("nil ctor accepted")
	}
	if _, err := r.Construct("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("construct missing: %v", err)
	}
	if err := r.Add(pvmImage("prog")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Construct("prog"); err == nil {
		t.Fatal("constructed a PVM image natively")
	}
	if err := r.Add(&Image{Name: "orphan", Kind: KindNative}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Construct("orphan"); !errors.Is(err, ErrNoConstructor) {
		t.Fatalf("orphan: %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := New()
	img := pvmImage("net-filter")
	if err := r.Add(img); err != nil {
		t.Fatal(err)
	}
	admin := cert.NewKeyCertifier("admin", cert.GenerateKey(1), cert.PrivKernelResident)
	c, err := admin.Certify("net-filter", img.Data, cert.PrivKernelResident)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Certify("net-filter", c); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(&Image{Name: "native-thing", Kind: KindNative, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}

	blob, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	names := back.List()
	if len(names) != 2 {
		t.Fatalf("round-tripped names = %v", names)
	}
	got, err := back.Get("net-filter")
	if err != nil {
		t.Fatal(err)
	}
	if cert.DigestImage(nil, got.Data) != cert.DigestImage(nil, img.Data) {
		t.Fatal("image bytes changed in round trip")
	}
	if got.Cert == nil || got.Cert.Issuer != "admin" || got.Cert.Digest != c.Digest {
		t.Fatalf("certificate lost: %+v", got.Cert)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad json: %v", err)
	}
	if _, err := Unmarshal([]byte(`[{"name":"x","kind":"pvm","data":"!!!"}]`)); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad base64: %v", err)
	}
	if _, err := Unmarshal([]byte(`[{"name":"x","kind":"pvm","data":"","cert":"!!!"}]`)); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad cert b64: %v", err)
	}
	if _, err := Unmarshal([]byte(`[{"name":"x","kind":"pvm","data":"","cert":"Z2FyYmFnZQ=="}]`)); !errors.Is(err, ErrBadManifest) {
		t.Fatalf("bad cert bytes: %v", err)
	}
}

func TestImageDigestStable(t *testing.T) {
	a := pvmImage("x")
	b := pvmImage("x")
	if cert.DigestImage(nil, a.Data) != cert.DigestImage(nil, b.Data) {
		t.Fatal("identical images, different digests")
	}
	b.Data = append(b.Data, 1)
	if cert.DigestImage(nil, a.Data) == cert.DigestImage(nil, b.Data) {
		t.Fatal("different images, same digest")
	}
}
