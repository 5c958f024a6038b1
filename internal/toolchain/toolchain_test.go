package toolchain

import (
	"strings"
	"testing"
)

func TestToolchainMarchResolution(t *testing.T) {
	tc := GNUx86()
	got, err := tc.ResolveMarch("")
	if err != nil || got != "x86-64" {
		t.Errorf("default march = %q, %v", got, err)
	}
	got, err = tc.ResolveMarch("native")
	if err != nil || got != tc.NativeMarch {
		t.Errorf("native march = %q, %v", got, err)
	}
	if _, err := tc.ResolveMarch("armv8-a"); err == nil {
		t.Error("foreign march accepted")
	}
	if !tc.AcceptsMarch("native") || !tc.AcceptsMarch("x86-64-v3") || tc.AcceptsMarch("ft2000plus") {
		t.Error("AcceptsMarch wrong")
	}
	if !tc.AcceptsMachineFlag("arch=anything") || !tc.AcceptsMachineFlag("tune=native") {
		t.Error("arch=/tune= must pass the flag gate (validated separately)")
	}
	if tc.AcceptsMachineFlag("sve") {
		t.Error("x86 toolchain accepted an ARM flag")
	}
}

func TestLLVMVariants(t *testing.T) {
	x := LLVM(ISAx86)
	a := LLVM(ISAArm)
	if x.TargetISA != ISAx86 || a.TargetISA != ISAArm {
		t.Error("LLVM targets wrong")
	}
	if !a.AcceptsMarch("armv8-a") || a.AcceptsMarch("x86-64") {
		t.Error("LLVM arm march set wrong")
	}
	if !x.SupportsLTO || !x.SupportsPGO {
		t.Error("LLVM must support LTO and PGO")
	}
}

func TestRegistryTools(t *testing.T) {
	r := VendorRegistry(ISAx86)
	tools := strings.Join(r.Tools(), " ")
	for _, want := range []string{"gcc", "g++", "mpicc", "ixc"} {
		if !strings.Contains(tools, want) {
			t.Errorf("vendor registry missing %s: %s", want, tools)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	// -c with -o and multiple inputs.
	if err := r.Run(strings.Fields("gcc -c main.c util.c -o both.o")); err == nil {
		t.Error("-c -o with multiple files accepted")
	}
	// -c with an object input.
	run(t, r, "gcc -c main.c")
	if err := r.Run(strings.Fields("gcc -c main.o")); err == nil {
		t.Error("-c of an object accepted")
	}
	// Linking a text file.
	f.WriteFile("/src/readme.o", []byte("not an artifact"), 0o644)
	if err := r.Run(strings.Fields("gcc readme.o -o app")); err == nil {
		t.Error("linked a non-artifact object")
	}
	// No inputs at all.
	if err := r.Run([]string{"gcc"}); err == nil {
		t.Error("no-input link accepted")
	}
	if err := r.Run([]string{"gcc", "-c"}); err == nil {
		t.Error("no-input compile accepted")
	}
	// Empty command.
	if err := r.Run(nil); err == nil {
		t.Error("empty argv accepted")
	}
}

func TestArchiveErrors(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	if err := r.Run(strings.Fields("ar rcs empty.a")); err == nil {
		t.Error("empty archive accepted")
	}
	run(t, r, "gcc -c main.c")
	// Archiving an archive member of the wrong kind.
	run(t, r, "ar rcs one.a main.o")
	if err := r.Run(strings.Fields("ar rcs nested.a one.a")); err == nil {
		t.Error("archived an archive as a member")
	}
	// Listing operations are no-ops.
	if err := r.Run(strings.Fields("ar t one.a")); err != nil {
		t.Errorf("ar t failed: %v", err)
	}
}

func TestResponseFiles(t *testing.T) {
	f := buildFS()
	r := newX86Runner(f)
	run(t, r, "gcc -O2 -c main.c")
	run(t, r, "gcc -O2 -c util.c")
	f.WriteFile("/src/link.rsp", []byte("main.o util.o\n  -lm   'x y.o'\n"), 0o644)
	// The quoted member doesn't exist, so the link must complain about
	// exactly the token the quote protected.
	err := runErr(t, r, "gcc @link.rsp -o app")
	if !strings.Contains(err.Error(), "x y.o") {
		t.Errorf("err = %v", err)
	}
	f.WriteFile("/src/link.rsp", []byte("main.o util.o -lm\n"), 0o644)
	run(t, r, "gcc @link.rsp -o app")
	a := loadArt(t, f, "/src/app")
	if len(a.Sources) != 2 {
		t.Errorf("linked sources = %v", a.Sources)
	}
	if err := r.Run(strings.Fields("gcc @missing.rsp -o app")); err == nil {
		t.Error("missing response file accepted")
	}
	f.WriteFile("/src/bad.rsp", []byte("'unterminated\n"), 0o644)
	if err := r.Run(strings.Fields("gcc @bad.rsp")); err == nil {
		t.Error("malformed response file accepted")
	}
}

func TestBitcodeCompileRoundTrip(t *testing.T) {
	f := buildFS()
	src, _ := f.ReadFile("/src/main.c")
	bc := BitcodeArtifact("/src/main.c", src, ISAx86, "c")
	f.WriteFile("/src/main.c", bc.Encode(), 0o644)

	r := newX86Runner(f)
	run(t, r, "gcc -O2 -c main.c -o main.o")
	a := loadArt(t, f, "/src/main.o")
	if a.Kind != KindObject || a.Lang != "c" {
		t.Errorf("object from bitcode = %+v", a)
	}
	// Foreign-ISA lowering fails.
	arm := NewRunner(f, GenericRegistry(ISAArm))
	arm.Cwd = "/src"
	if err := arm.Run(strings.Fields("gcc -c main.c")); err == nil ||
		!strings.Contains(err.Error(), "bitcode targets") {
		t.Errorf("foreign bitcode err = %v", err)
	}
	// Non-bitcode artifacts at a source path are rejected.
	f.WriteFile("/src/fake.c", LibraryArtifact("x", "gnu", ISAx86, 1, false).Encode(), 0o644)
	if err := r.Run(strings.Fields("gcc -c fake.c")); err == nil {
		t.Error("non-bitcode artifact compiled as source")
	}
}
