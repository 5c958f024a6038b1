package core

import (
	"testing"

	"comtainer/internal/core/cache"
	"comtainer/internal/sysprofile"
	"comtainer/internal/toolchain"
	"comtainer/internal/workloads"
)

// imageDigestsGolden holds, per workloads.Apps() entry, the manifest
// digests of the extended (+coM), rebuilt (+coMre) and optimized
// (.redirect) images. The constants were printed by this test body at
// commit d005b2b (PR 17), before derived images started referencing
// their base blobs instead of re-encoding them: the bench oracle
// compares a run with a reference made by the same binary, so a drift
// that moves both sides is visible only here.
var imageDigestsGolden = map[string][3]string{
	"hpl":      {"3dc03661395e60bf6c0442b7cd3b5666557f2fb0fa066abf15c9add0d0a90068", "eaca8b44e3692e21184bf85843710c3d6144789848b7d873cb7479cfa7214b73", "32fca670fbbbf1c93c51515276813990771b1bf6e4a1648d62e0189519099af1"},
	"hpcg":     {"2a0637fdd3c33f4fb680c1465d1859834d135731e77b9d0f5c8ae8c6370bc990", "e14668d6489ec361cc58cb760fee2716fadff20ce365c65b66b38699e2590bd0", "adc79e0ee7cbb8b4610fe2a6dba4f0843abd6a9eb1cac084beef76611fac1dec"},
	"lulesh":   {"1d1032a70ae462d3efc1f1a50b691feb351c46b4a58816b92e587164239aa590", "ff5af0bb3bc65ad058c9e788e971181f3970752ecd4317d305d127eda296e40e", "b6baf386f87b89a4c8bc5d28cfdca1b9d592c4671ecc29e2dd077d5520495987"},
	"comd":     {"2406bea311506f9355df58e349864c938da483a2af1eb4b4be11a31b764e0a36", "00cd6223522a87adec4c10376d6ab0981a76d512eb4738db38c0efb618173f1e", "23c3cbf736169643b0980abfc25bfd97540f5e8e795de9bbdaf4804a3228d40c"},
	"hpccg":    {"ba4e851842ad4ce183f94b9c67dee4159d05a41be5fc607c7c11e932bc265ac1", "a83a68505bb575fa69e1b4cc84fc64687c3c71765af6ed58ce303c234fed85b9", "27928505cd4e3c4e763839d3223a53c70e2d40c3aac12a4ef463bf794c43ce1b"},
	"miniaero": {"3cc1d62a6d967af36969e9ce41c7ab216bb824b2866a6dc2f1def883c73ccacb", "e38f8c190ffe7d26c82ca1f23f967b46c7e4678197c683b8b5e63b30696d9a93", "74b520fd0292f4c54a21896251157ba7beb77ce65172c336102ad589ccd20a6d"},
	"miniamr":  {"78760388857222ca6350bea0e5167124f828882457beaa47dbfae5c13162a5c7", "3178a51c5827783144f244fac9188403e340f2b9c9121f7cab617951662d837e", "04adfb5829b1cc59a14b689d5f636618692f10a84fc714f7092e9bd2fd2094f4"},
	"minife":   {"1737ac003972e26cdcbb36621a131588945069fbba2ef0ae743014964e18b57c", "de72807f105912cbc7a3de777610b7d5bdd9a1af345a7faddf292aadf87cc777", "aa6fdb7b3f5dabcc462f3bdde90c1ac58cddd1dee3b17c2198093d18f68f90a4"},
	"minimd":   {"68da74df50576814bdd08b6782e62b16a2078d9c56910883d1bc6314456ca745", "37ca1200e38d7819a012fbd0b759c6895bb8114d46209bfa8239f227d814753a", "0d279cb452e45c707a545f0b3ccf8a934cd3f43e7efd879be3481d4155a63945"},
	"lammps":   {"af111b912d81b26b483fa7d25ed2cebff8ff7d3acfc93320b3765e2a3f0a3f97", "fdec09679775042ec61230ade16e10bbbe6a90fc038cd0226ca02ccc9e1b4ae9", "94050b857902dd3e09f3c18bd88e8467ae175974d7f32329cca22cf17a38bb70"},
	"openmx":   {"dc4790e4157758d7ec6fee804cab726da6c7297f4acd869b3207626f61205ff6", "52b6c00c69674a679ce5c92176ef423dfdf743a79848140cf290819b37f6c59a", "b09fb6ad0ecffc0d7baa70a6d7d3beaa10805f9c0b403b095b449b2608d6ff3b"},
}

func TestImageDigestsGolden(t *testing.T) {
	user, err := NewUserSide(toolchain.ISAx86)
	if err != nil {
		t.Fatal(err)
	}
	system, err := NewSystemSide(sysprofile.X86Cluster())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range workloads.Apps() {
		res, err := user.BuildExtended(app)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		if err := system.Pull(user.Repo, res.ExtendedTag); err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		optTag, err := system.Adapt(res.DistTag, nil)
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		var got [3]string
		for i, tag := range []string{res.ExtendedTag, cache.RebuiltTag(res.DistTag), optTag} {
			got[i] = mustResolve(t, system.Repo, tag).Digest.Hex()
		}
		if want, ok := imageDigestsGolden[app.Name]; !ok || got != want {
			t.Errorf("%s: manifest digests moved:\n\t%q: {%q, %q, %q},", app.Name, app.Name, got[0], got[1], got[2])
		}
	}
	if n := len(workloads.Apps()); len(imageDigestsGolden) != n {
		t.Errorf("golden table has %d entries, workloads.Apps() has %d", len(imageDigestsGolden), n)
	}
}
