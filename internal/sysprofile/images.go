package sysprofile

import (
	"fmt"

	"comtainer/internal/containerfile"
	"comtainer/internal/dpkg"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/toolchain"
)

// Image tags this package populates. The user side mirrors the paper's
// Figure 5/6 image set; the system side adds the Sysenv and Rebase images.
const (
	TagUbuntu = "ubuntu:24.04"
	TagEnv    = "comt:ubuntu24.env"
	TagBase   = "comt:ubuntu24.base"
	TagSysenv = "comt:ubuntu24.sysenv"
	TagRebase = "comt:ubuntu24.rebase"
)

// ociArch maps an ISA to the OCI architecture string.
func ociArch(isa string) string {
	if isa == toolchain.ISAArm {
		return "arm64"
	}
	return "amd64"
}

// baseFS builds the distribution root file system for an ISA: os metadata,
// a shell, and the core runtime stack installed through dpkg so the image
// model can attribute every file to its package.
func baseFS(isa string) (*fsim.FS, error) {
	fs := fsim.New()
	fs.WriteFile("/etc/os-release", []byte("PRETTY_NAME=\"Ubuntu 24.04 LTS\"\nID=ubuntu\nVERSION_ID=\"24.04\"\n"), 0o644)
	fs.WriteFile("/bin/sh", []byte("#!shell\n"), 0o755)
	fs.WriteFile("/etc/hostname", []byte("localhost\n"), 0o644)
	db := dpkg.NewDB()
	if err := db.Install(fs, BaseFiles(isa)); err != nil {
		return nil, fmt.Errorf("sysprofile: installing base-files: %w", err)
	}
	for _, spec := range coreSpecs(isa) {
		if err := db.Install(fs, spec.build(isa, "gnu")); err != nil {
			return nil, fmt.Errorf("sysprofile: installing %s: %w", spec.pkg, err)
		}
	}
	return fs, nil
}

// writeImage wraps the FS as a single-layer image with the given role
// label and tags it in repo.
func writeImage(repo *oci.Repository, fs *fsim.FS, isa, tag, role string) error {
	cfg := oci.ImageConfig{
		Architecture: ociArch(isa),
		OS:           "linux",
		Config: oci.ExecConfig{
			Env:    []string{"PATH=/usr/local/bin:/usr/bin:/bin"},
			Cmd:    []string{"/bin/sh"},
			Labels: map[string]string{},
		},
	}
	if role != "" {
		cfg.Config.Labels[containerfile.RoleLabel] = role
	}
	desc, err := oci.WriteImage(repo.Store, cfg, []*fsim.FS{fs})
	if err != nil {
		return fmt.Errorf("sysprofile: writing %s: %w", tag, err)
	}
	repo.Tag(tag, desc)
	return nil
}

// PopulateUserSide writes the user-side base images for an ISA into repo:
// the stock distribution image, coMtainer's Env image (build stage base,
// with the toolchain entry points the hijacker shadows) and coMtainer's
// Base image (dist stage base).
func PopulateUserSide(repo *oci.Repository, isa string) error {
	ub, err := baseFS(isa)
	if err != nil {
		return err
	}
	if err := writeImage(repo, ub, isa, TagUbuntu, containerfile.RoleGeneric); err != nil {
		return err
	}

	env, err := baseFS(isa)
	if err != nil {
		return err
	}
	envDB, err := dpkg.Load(env)
	if err != nil {
		return err
	}
	if err := envDB.Install(env, BuildEssential(isa)); err != nil {
		return err
	}
	// The hijacker home: marks this as an Env-derived container and hosts
	// the raw build log and cache I/O mount point.
	if err := env.MkdirAll("/.comtainer", 0o755); err != nil {
		return err
	}
	env.WriteFile("/.comtainer/hijacker", []byte("#!comtainer-hijacker\n"), 0o755)
	if err := writeImage(repo, env, isa, TagEnv, containerfile.RoleEnv); err != nil {
		return err
	}

	base, err := baseFS(isa)
	if err != nil {
		return err
	}
	if err := writeImage(repo, base, isa, TagBase, containerfile.RoleBase); err != nil {
		return err
	}
	return nil
}

// PopulateSystemSide writes the system-side images for a cluster into
// repo: the Sysenv image (vendor toolchain + optimized stack, the rebuild
// container base) and the Rebase image (redirect container base).
func PopulateSystemSide(repo *oci.Repository, s *System) error {
	sysenv, err := baseFS(s.ISA)
	if err != nil {
		return err
	}
	db, err := dpkg.Load(sysenv)
	if err != nil {
		return err
	}
	if err := db.Install(sysenv, VendorToolchainPackage(s)); err != nil {
		return err
	}
	idx := s.AptIndex()
	// Preinstall the vendor-optimized stack so rebuilt links resolve
	// against optimized libraries.
	for _, spec := range vendorSpecs(s) {
		p, ok := idx.Latest(spec.pkg)
		if !ok {
			return fmt.Errorf("sysprofile: vendor package %s missing from index", spec.pkg)
		}
		if err := db.InstallWithDeps(sysenv, idx, p); err != nil {
			return err
		}
	}
	if err := sysenv.MkdirAll("/.comtainer", 0o755); err != nil {
		return err
	}
	if err := writeImage(repo, sysenv, s.ISA, TagSysenv, containerfile.RoleSysenv); err != nil {
		return err
	}

	rebase, err := baseFS(s.ISA)
	if err != nil {
		return err
	}
	if err := rebase.MkdirAll("/.comtainer", 0o755); err != nil {
		return err
	}
	return writeImage(repo, rebase, s.ISA, TagRebase, containerfile.RoleRebase)
}
