package mpisim

import (
	"testing"

	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
)

func TestPathFor(t *testing.T) {
	plugin := toolchain.MPILibraryArtifact("libmpi", "phytium", toolchain.ISAArm, 1.15, true)
	generic := toolchain.MPILibraryArtifact("libmpi", "gnu", toolchain.ISAArm, 1.0, false)
	if PathFor(plugin, 16) != PathNative {
		t.Error("vendor MPI should ride the native path")
	}
	if PathFor(generic, 16) != PathFallback {
		t.Error("generic MPI should fall back")
	}
	if PathFor(plugin, 1) != PathShared || PathFor(nil, 1) != PathShared {
		t.Error("single-node runs use shared memory")
	}
	if PathFor(nil, 16) != PathFallback {
		t.Error("no MPI artifact should fall back")
	}
}

func TestMessageCostMonotonicInSize(t *testing.T) {
	f := sysprofile.X86Cluster().Fabric
	small, err := MessageCostUS(f, PathNative, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := MessageCostUS(f, PathNative, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Errorf("cost not monotone: %f vs %f", small, big)
	}
	if _, err := MessageCostUS(f, PathNative, -1); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := MessageCostUS(f, Path(99), 1); err == nil {
		t.Error("bogus path accepted")
	}
}

func TestPenaltyShapes(t *testing.T) {
	x86 := sysprofile.X86Cluster().Fabric
	arm := sysprofile.ArmCluster().Fabric
	// The LULESH message mix (256 KB): x86 degrades mildly, the ARM
	// proprietary fabric collapses — the paper's §5.2 story.
	px, err := Penalty(x86, 256)
	if err != nil {
		t.Fatal(err)
	}
	pa, err := Penalty(arm, 256)
	if err != nil {
		t.Fatal(err)
	}
	if px < 1.0 || px > 1.3 {
		t.Errorf("x86 penalty at 256KB = %f, want mild (1.0-1.3)", px)
	}
	if pa < 2.5 || pa > 4.5 {
		t.Errorf("aarch64 penalty at 256KB = %f, want severe (~3.2)", pa)
	}
	if pa <= px {
		t.Error("aarch64 fallback should be worse than x86's")
	}
	// Latency-bound small messages hurt even more on the ARM fabric.
	paSmall, _ := Penalty(arm, 4)
	if paSmall <= pa {
		t.Errorf("small-message penalty (%f) should exceed large-message (%f)", paSmall, pa)
	}
}

func TestCommTime(t *testing.T) {
	sys := sysprofile.ArmCluster()
	vendor := toolchain.MPILibraryArtifact("libmpi", "phytium", toolchain.ISAArm, 1.15, true)
	generic := toolchain.MPILibraryArtifact("libmpi", "gnu", toolchain.ISAArm, 1.0, false)

	nat, err := CommTime(sys.Fabric, vendor, 16, 10.0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if nat != 10.0 {
		t.Errorf("native comm time = %f, want the budget", nat)
	}
	fb, err := CommTime(sys.Fabric, generic, 16, 10.0, 256)
	if err != nil {
		t.Fatal(err)
	}
	if fb <= 25 || fb >= 45 {
		t.Errorf("fallback comm time = %f, want ~32", fb)
	}
	single, err := CommTime(sys.Fabric, generic, 1, 10.0, 256)
	if err != nil || single != 0 {
		t.Errorf("single node comm = %f, %v", single, err)
	}
}
