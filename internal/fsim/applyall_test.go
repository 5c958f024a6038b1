package fsim_test

import (
	"testing"

	"comtainer/internal/core"
	"comtainer/internal/fsim"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// TestApplyAllIsLeftFoldOfApply: ApplyAll folds the layers into one
// accumulator; on the layer stacks of the Table-2 images (build stage
// and extended image of every application) the result is the state
// that applying them one at a time, each to a fresh copy, arrives at.
func TestApplyAllIsLeftFoldOfApply(t *testing.T) {
	user, err := core.NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workloads.Apps() {
		res, err := user.BuildExtended(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, tag := range []string{res.BuildTag, res.ExtendedTag} {
			img, err := user.Repo.LoadByTag(tag)
			if err != nil {
				t.Fatal(err)
			}
			layers, err := img.Layers()
			if err != nil {
				t.Fatal(err)
			}
			fold := fsim.New()
			for _, l := range layers {
				fold = fsim.Apply(fold, l)
			}
			all := fsim.ApplyAll(layers)
			if !all.Equal(fold) {
				t.Errorf("%s: ApplyAll over %d layers differs from the left fold of Apply", tag, len(layers))
			}
			if all.Len() == 0 {
				t.Errorf("%s: flattened to an empty file system", tag)
			}
		}
	}
}
