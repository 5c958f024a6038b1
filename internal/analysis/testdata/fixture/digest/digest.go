// Package digest stands in for comtainer/internal/digest, which the
// fixture module cannot import.
package digest

// Digest is a content address in "algorithm:hex" form.
type Digest string
