package model

import (
	"testing"
	"testing/quick"
)

// sampleGraph builds src -> obj -> (archive, exe).
func sampleGraph() *BuildGraph {
	g := NewBuildGraph()
	s1 := g.AddSource("/app/src/a.c")
	s2 := g.AddSource("/app/src/b.c")
	o1 := g.AddProduct("/app/src/a.o", KindObject,
		&CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O2", "-c", "a.c"}, Cwd: "/app/src", Seq: 0},
		[]NodeID{s1.ID})
	o2 := g.AddProduct("/app/src/b.o", KindObject,
		&CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O2", "-c", "b.c"}, Cwd: "/app/src", Seq: 1},
		[]NodeID{s2.ID})
	ar := g.AddProduct("/app/src/libx.a", KindArchive,
		&CompilationModel{Kind: "ar", Argv: []string{"ar", "rcs", "libx.a", "b.o"}, Cwd: "/app/src", Seq: 2},
		[]NodeID{o2.ID})
	g.AddProduct("/app/bin/app", KindExecutable,
		&CompilationModel{Kind: "cc", Argv: []string{"gcc", "a.o", "libx.a", "-o", "/app/bin/app"}, Cwd: "/app/src", Seq: 3},
		[]NodeID{o1.ID, ar.ID})
	return g
}

func TestGraphBasics(t *testing.T) {
	g := sampleGraph()
	if g.Len() != 6 {
		t.Fatalf("Len = %d", g.Len())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Sources()) != 2 {
		t.Errorf("Sources = %d", len(g.Sources()))
	}
	if len(g.Products()) != 4 {
		t.Errorf("Products = %d", len(g.Products()))
	}
	n, ok := g.ByPath("/app/bin/app")
	if !ok || n.Kind != KindExecutable {
		t.Errorf("ByPath = %+v, %v", n, ok)
	}
	if _, ok := g.ByPath("/nope"); ok {
		t.Error("ByPath found missing node")
	}
	if _, ok := g.Node(NodeID(99)); ok {
		t.Error("Node(99) found")
	}
}

func TestAddSourceIdempotent(t *testing.T) {
	g := NewBuildGraph()
	a := g.AddSource("/x.c")
	b := g.AddSource("/x.c")
	if a.ID != b.ID || g.Len() != 1 {
		t.Error("AddSource not idempotent")
	}
}

func TestAddProductReplaces(t *testing.T) {
	g := NewBuildGraph()
	s := g.AddSource("/x.c")
	first := &CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O0", "-c", "x.c"}, Seq: 0}
	second := &CompilationModel{Kind: "cc", Argv: []string{"gcc", "-O3", "-c", "x.c"}, Seq: 1}
	g.AddProduct("/x.o", KindObject, first, []NodeID{s.ID})
	n := g.AddProduct("/x.o", KindObject, second, []NodeID{s.ID})
	if n.Cmd.Seq != 1 || g.Len() != 2 {
		t.Error("recompilation did not replace the node command")
	}
}

func TestTopoOrder(t *testing.T) {
	g := sampleGraph()
	order, err := g.Topo()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n.Path] = i
	}
	if !(pos["/app/src/a.c"] < pos["/app/src/a.o"] &&
		pos["/app/src/b.o"] < pos["/app/src/libx.a"] &&
		pos["/app/src/libx.a"] < pos["/app/bin/app"]) {
		t.Errorf("topo order wrong: %v", pos)
	}
}

func TestCycleDetection(t *testing.T) {
	g := NewBuildGraph()
	a := g.AddProduct("/a", KindObject, &CompilationModel{Kind: "cc"}, nil)
	b := g.AddProduct("/b", KindObject, &CompilationModel{Kind: "cc"}, []NodeID{a.ID})
	a.Deps = []NodeID{b.ID}
	if _, err := g.Topo(); err == nil {
		t.Error("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Error("Validate missed the cycle")
	}
}

func TestValidateErrors(t *testing.T) {
	g := NewBuildGraph()
	g.AddProduct("/x.o", KindObject, nil, nil)
	if err := g.Validate(); err == nil {
		t.Error("product without command accepted")
	}
	g2 := NewBuildGraph()
	n := g2.AddSource("/s.c")
	n.Deps = []NodeID{42}
	if err := g2.Validate(); err == nil {
		t.Error("dangling dep accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := sampleGraph()
	c := g.Clone()
	n, _ := c.ByPath("/app/src/a.o")
	n.Cmd.Argv[1] = "-O3"
	orig, _ := g.ByPath("/app/src/a.o")
	if orig.Cmd.Argv[1] != "-O2" {
		t.Error("clone shares command argv")
	}
	c.AddSource("/new.c")
	if g.Len() == c.Len() {
		t.Error("clone shares node slice")
	}
}

func TestModelsRoundTrip(t *testing.T) {
	m := &Models{
		Image: ImageModel{
			Architecture: "amd64",
			Entrypoint:   []string{"/app/bin/app"},
			Files: []FileEntry{
				{Path: "/app/bin/app", Origin: OriginBuild, Node: 6, Size: 100},
				{Path: "/usr/lib/libc.so.6", Origin: OriginBase, Package: "libc6", Size: 5},
			},
			Packages: []PackageRef{{Name: "libc6", Version: "2.39"}},
		},
		Graph:       sampleGraph(),
		SourcePaths: []string{"/app/src/a.c", "/app/src/b.c"},
		Installed:   map[string]string{"/app/bin/app": "/app/bin/app"},
		BuildISA:    "x86-64",
	}
	blob, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.Len() != m.Graph.Len() || back.BuildISA != "x86-64" {
		t.Errorf("round trip mismatch: %+v", back)
	}
	// The path index is rebuilt after decoding.
	if _, ok := back.Graph.ByPath("/app/bin/app"); !ok {
		t.Error("ByPath broken after Unmarshal")
	}
	if back.Installed["/app/bin/app"] != "/app/bin/app" {
		t.Error("Installed map lost")
	}
	cm, _ := back.Graph.ByPath("/app/src/a.o")
	cc, err := cm.Cmd.CC()
	if err != nil {
		t.Fatal(err)
	}
	if cc.OptLevel() != "2" {
		t.Errorf("compilation model OptLevel = %q", cc.OptLevel())
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	// A decoded graph with a cycle must be rejected.
	bad := `{"graph":{"nodes":[
	  {"id":1,"kind":"object","path":"/a","deps":[2],"cmd":{"kind":"cc","argv":["gcc"],"seq":0}},
	  {"id":2,"kind":"object","path":"/b","deps":[1],"cmd":{"kind":"cc","argv":["gcc"],"seq":1}}
	]}}`
	if _, err := Unmarshal([]byte(bad)); err == nil {
		t.Error("cyclic graph accepted")
	}
}

func TestCompilationModelKinds(t *testing.T) {
	cc := &CompilationModel{Kind: "cc", Argv: []string{"gcc", "-c", "x.c"}}
	if _, err := cc.CC(); err != nil {
		t.Error(err)
	}
	ar := &CompilationModel{Kind: "ar", Argv: []string{"ar", "rcs", "x.a", "x.o"}}
	if _, err := ar.CC(); err == nil {
		t.Error("ar parsed as cc")
	}
	var nilCM *CompilationModel
	if nilCM.Clone() != nil {
		t.Error("nil Clone not nil")
	}
}

func TestImageModelHelpers(t *testing.T) {
	im := ImageModel{Files: []FileEntry{
		{Path: "/a", Origin: OriginBase},
		{Path: "/b", Origin: OriginBuild},
		{Path: "/c", Origin: OriginBuild},
		{Path: "/d", Origin: OriginData},
	}}
	counts := im.CountByOrigin()
	if counts[OriginBuild] != 2 || counts[OriginBase] != 1 || counts[OriginData] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if _, ok := im.File("/b"); !ok {
		t.Error("File(/b) not found")
	}
	if _, ok := im.File("/zz"); ok {
		t.Error("File(/zz) found")
	}
}

func TestPropertyTopoIsLinearExtension(t *testing.T) {
	// For a chain graph of random length, Topo must respect every edge.
	f := func(nRaw uint8) bool {
		n := int(nRaw%20) + 2
		g := NewBuildGraph()
		prev := g.AddSource("/s0")
		for i := 1; i < n; i++ {
			prev = g.AddProduct(
				"/p"+string(rune('a'+i%26))+string(rune('0'+i/26)),
				KindObject,
				&CompilationModel{Kind: "cc", Argv: []string{"gcc"}, Seq: i},
				[]NodeID{prev.ID})
		}
		order, err := g.Topo()
		if err != nil {
			return false
		}
		pos := map[NodeID]int{}
		for i, node := range order {
			pos[node.ID] = i
		}
		for _, node := range g.Nodes {
			for _, d := range node.Deps {
				if pos[d] >= pos[node.ID] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
