package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"comtainer/internal/core/cache"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
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

// buildContextGolden holds, per case of TestBuildContextGolden, the
// sha256 of the sorted "path size sha256(content)" lines of every file
// contextFor builds. The constants were printed by this test body at
// commit f2ba6c9, while the generators still wrote one fmt.Fprintf per
// source line and one byte per data byte.
var buildContextGolden = map[string]string{
	"comd/aarch64":          "230954eaddd3dd5d5a30d1cdb97ce6a9b5c384fb4280c920d59279c566c58408",
	"hpccg/aarch64":         "bf431032fdfccfcd838508803073592ee51ea8b38c67f16ed87bb2b6c2c7ba90",
	"hpcg/aarch64":          "b05057ed0be6a46c958a53b60fc24470a5b8d47839136b7d76dc1b9cffbcf328",
	"hpl/aarch64":           "a49c21434997970c1825b6fabef9f89243c89d26d57789c0d9a0af40c86d6177",
	"lammps/aarch64":        "e3d5181086244a9056499504b06a4eb4c3d43497bf2ffe29fc5d9cf218f67f7e",
	"lulesh/aarch64":        "327d0d9066c106999cb19e8178f53d721b2f7c8b6fe36852161f4435b5fab57f",
	"miniaero/aarch64":      "484e0e2b03272591018fb116f13758b86d45bf78f916c15389dea238cf737218",
	"miniamr/aarch64":       "2ebce65db8fd50f26a15591a02af501df55a4ee1e7130cadf76b3e3f265ad08f",
	"minife/aarch64":        "b02cd37fdcf2eea2a484333bd26446c38e28585931833fb37b856022a62b21b4",
	"minimd/aarch64":        "10990ec92458bf754f345a241c6782235baaef4cd92fa74dc8a98b0156e4530c",
	"openmx/aarch64":        "cc3420dd1ce6cb0b765dc2542079586f800e17633d6646053e5cbf0b72e85c0d",
	"synth-big/make=false":  "8d5770a3ed7d244f2a13ef32e9f6e8902869455a4c710276f553b831f9b163e4",
	"synth-big/make=true":   "43948f65d51a65c65202acc68fb3cb0bafa00b4f5d3d35db10540da1945f00b4",
	"synth-bulk/make=false": "1347b01796a40f46c85e110f33095af0c59293b8cd41975a00ae8b7aa8ca4047",
	"synth-bulk/make=true":  "74234016e75d5e9bea5503e3b2359e18c8274f6be8d615ef929945fdc554729c",
	"synth-wide/make=false": "d01d8cf6e75f6967e55622cbb2e377641fba81f5b2f1a4cc1ec569d54051bbdb",
	"synth-wide/make=true":  "0dffd860788449da231ce7010ee3319204020f560a137274b43cee77f1307334",
}

// TestBuildContextGolden pins the build context byte for byte where
// TestImageDigestsGolden does not reach: the Table-2 apps on AArch64, and
// the benchmark's three synthetic shapes at its sizes, each built with
// and without a Makefile.
func TestBuildContextGolden(t *testing.T) {
	type build struct {
		app *workloads.App
		isa string
	}
	cases := map[string]build{}
	for _, app := range workloads.Apps() {
		cases[app.Name+"/"+toolchain.ISAArm] = build{app, toolchain.ISAArm}
	}
	for _, s := range []struct {
		name, lang   string
		srcMiB, data float64
		files        int
	}{
		{"synth-wide", "c", 2048, 0, 192},
		{"synth-bulk", "c", 8, 8192, 8},
		{"synth-big", "c++", 4096, 4096, 128},
	} {
		for _, useMake := range []bool{false, true} {
			app := &workloads.App{Name: s.name, Language: s.lang, SrcMiB: s.srcMiB, NumSrcFiles: s.files,
				DataMiB: s.data, UseMake: useMake, Libs: []string{"m", "mpi"}}
			cases[fmt.Sprintf("%s/make=%t", s.name, useMake)] = build{app, toolchain.ISAx86}
		}
	}
	for key, c := range cases {
		var lines []string
		err := contextFor(c.app, c.isa).Walk(func(f *fsim.File) error {
			if f.Type == fsim.TypeRegular {
				lines = append(lines, fmt.Sprintf("%s %d %s", f.Path, len(f.Data), digest.FromBytes(f.Data).Hex()))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(lines)
		got := digest.FromString(strings.Join(lines, "\n")).Hex()
		if want := buildContextGolden[key]; got != want {
			t.Errorf("%s: build context moved:\n\t%q: %q,", key, key, got)
		}
	}
	if len(buildContextGolden) != len(cases) {
		t.Errorf("golden table has %d entries, want %d", len(buildContextGolden), len(cases))
	}
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
