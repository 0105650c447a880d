// Package repoz implements the Paramecium component repository: the
// store that dynamic loading pulls component images from. "Standard
// operations exist to bind to an existing object, load one from a
// repository, and to obtain an interface from a given object handle."
//
// An image is a named byte string (for PVM components, the encoded
// program; for native components, constructor parameters) plus an
// optional certificate. The kernel's loader validates the certificate
// against the image before a component may be placed in the kernel
// protection domain.
package repoz

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"

	"paramecium/internal/cert"
	"paramecium/internal/obj"
)

// Kind distinguishes how an image is instantiated.
type Kind string

// Image kinds.
const (
	// KindPVM images are encoded sandbox.Program byte strings.
	KindPVM Kind = "pvm"
	// KindNative images are instantiated by a registered constructor;
	// Data carries constructor parameters.
	KindNative Kind = "native"
)

// Errors.
var (
	ErrNotFound      = errors.New("repoz: component not found")
	ErrExists        = errors.New("repoz: component already stored")
	ErrNoConstructor = errors.New("repoz: no constructor registered")
	ErrBadManifest   = errors.New("repoz: bad manifest")
)

// Image is one stored component.
type Image struct {
	Name string
	Kind Kind
	Data []byte
	// Cert is the component's certificate, if it has been certified.
	Cert *cert.Certificate
}

// Constructor instantiates a native component from its image data.
type Constructor func(data []byte) (obj.Instance, error)

// Repository is a concurrent-safe component store.
type Repository struct {
	mu           sync.RWMutex
	images       map[string]*Image
	constructors map[string]Constructor
}

// New builds an empty repository.
func New() *Repository {
	return &Repository{
		images:       make(map[string]*Image),
		constructors: make(map[string]Constructor),
	}
}

// Add stores an image. Component names are unique.
func (r *Repository) Add(img *Image) error {
	if img == nil || img.Name == "" {
		return fmt.Errorf("%w: missing name", ErrBadManifest)
	}
	if img.Kind != KindPVM && img.Kind != KindNative {
		return fmt.Errorf("%w: kind %q", ErrBadManifest, img.Kind)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.images[img.Name]; dup {
		return fmt.Errorf("%w: %q", ErrExists, img.Name)
	}
	r.images[img.Name] = img
	return nil
}

// Get fetches an image by name.
func (r *Repository) Get(name string) (*Image, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	img, ok := r.images[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return img, nil
}

// List returns the stored component names, sorted.
func (r *Repository) List() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.images))
	for n := range r.images {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Certify attaches a certificate to a stored image after checking it
// actually covers the stored bytes.
func (r *Repository) Certify(name string, c *cert.Certificate) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	img, ok := r.images[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if c.Digest != cert.DigestImage(nil, img.Data) {
		return fmt.Errorf("repoz: certificate digest does not match stored image %q", name)
	}
	img.Cert = c
	return nil
}

// RegisterConstructor installs the builder for a native component.
//
//paralint:ignore deadexport core's TestConstructUncertifiedNativeRefusedFromKernel needs it to pin that uncertified native code never enters the kernel context
func (r *Repository) RegisterConstructor(name string, ctor Constructor) error {
	if ctor == nil {
		return errors.New("repoz: nil constructor")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.constructors[name]; dup {
		return fmt.Errorf("%w: constructor %q", ErrExists, name)
	}
	r.constructors[name] = ctor
	return nil
}

// Construct instantiates a native image through its registered
// constructor.
func (r *Repository) Construct(name string) (obj.Instance, error) {
	r.mu.RLock()
	img, ok := r.images[name]
	ctor := r.constructors[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if img.Kind != KindNative {
		return nil, fmt.Errorf("repoz: %q is not a native component", name)
	}
	if ctor == nil {
		return nil, fmt.Errorf("%w: %q", ErrNoConstructor, name)
	}
	return ctor(img.Data)
}

// manifestEntry is the JSON form of an image.
type manifestEntry struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`
	Data string `json:"data"` // base64
	Cert string `json:"cert,omitempty"`
}

// Marshal serializes the repository to a JSON manifest.
func (r *Repository) Marshal() ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.images))
	for n := range r.images {
		names = append(names, n)
	}
	sort.Strings(names)
	entries := make([]manifestEntry, 0, len(names))
	for _, n := range names {
		img := r.images[n]
		e := manifestEntry{
			Name: img.Name,
			Kind: img.Kind,
			Data: base64.StdEncoding.EncodeToString(img.Data),
		}
		if img.Cert != nil {
			e.Cert = base64.StdEncoding.EncodeToString(img.Cert.Marshal())
		}
		entries = append(entries, e)
	}
	return json.MarshalIndent(entries, "", "  ")
}

// Unmarshal loads a manifest into a fresh repository.
func Unmarshal(data []byte) (*Repository, error) {
	var entries []manifestEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, err)
	}
	r := New()
	for _, e := range entries {
		raw, err := base64.StdEncoding.DecodeString(e.Data)
		if err != nil {
			return nil, fmt.Errorf("%w: data of %q: %v", ErrBadManifest, e.Name, err)
		}
		img := &Image{Name: e.Name, Kind: e.Kind, Data: raw}
		if e.Cert != "" {
			rawCert, err := base64.StdEncoding.DecodeString(e.Cert)
			if err != nil {
				return nil, fmt.Errorf("%w: cert of %q: %v", ErrBadManifest, e.Name, err)
			}
			c, err := cert.UnmarshalCertificate(rawCert)
			if err != nil {
				return nil, fmt.Errorf("%w: cert of %q: %v", ErrBadManifest, e.Name, err)
			}
			img.Cert = c
		}
		if err := r.Add(img); err != nil {
			return nil, err
		}
	}
	return r, nil
}
