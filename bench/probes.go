package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"comtainer/internal/cclang"
	"comtainer/internal/core/cache"
	"comtainer/internal/core/model"
	"comtainer/internal/digest"
	"comtainer/internal/fsim"
	"comtainer/internal/oci"
	"comtainer/internal/remoteexec"
	"comtainer/internal/sysprofile"
	"comtainer/internal/tarfs"
	"comtainer/internal/toolchain"
)

// runProbes calls layers directly on the corpus's real blobs, outside
// any op: the layers an op crosses only inside one public call, so no
// span from outside can separate them. Times are means per image (or
// per command); rates are over all corpus bytes. The reference
// adaptations supply the rebuilt and redirected images.
func runProbes(ctx context.Context, c *corpus, traced *instance) (map[string]float64, error) {
	out := map[string]float64{}
	store := c.user.Repo.Store
	images := float64(len(c.images))

	// cache.Read, LoadImage+Flatten, ApplyAll and Clone on every +coM
	// image; the Sysenv image is flattened too (every rebuild does).
	var readMs, flattenMs, applyMs, cloneMs float64
	var argvs [][]string
	for _, im := range c.images {
		desc, err := c.user.Repo.Resolve(im.res.ExtendedTag)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		img, err := oci.LoadImage(store, desc)
		if err != nil {
			return nil, err
		}
		flat, err := img.Flatten()
		if err != nil {
			return nil, err
		}
		flattenMs += since(t)

		t = time.Now()
		models, _, err := cache.Read(img)
		if err != nil {
			return nil, err
		}
		readMs += since(t)
		argvs = append(argvs, commandArgvs(models.Graph)...)

		layers, err := img.Layers()
		if err != nil {
			return nil, err
		}
		t = time.Now()
		fsim.ApplyAll(layers)
		applyMs += since(t)
		t = time.Now()
		flat.Clone()
		cloneMs += since(t)
	}
	anySystem := c.refs[c.images[0].name()].system
	t := time.Now()
	sysenvImg, err := anySystem.Repo.LoadByTag(sysprofile.TagSysenv)
	if err != nil {
		return nil, err
	}
	sysenvFS, err := sysenvImg.Flatten()
	if err != nil {
		return nil, err
	}
	flattenMs += since(t)
	out["cache.read_ms"] = readMs / images
	out["oci.load_flatten_ms"] = flattenMs / (images + 1)
	out["fsim.apply_ms"] = applyMs / images
	out["fsim.clone_ms"] = cloneMs / images

	// WriteImage of each redirected image's layers, AppendLayer of each
	// rebuild layer, Diff of each redirected image against Rebase.
	rebase, err := anySystem.Repo.LoadByTag(sysprofile.TagRebase)
	if err != nil {
		return nil, err
	}
	rebaseFS, err := rebase.Flatten()
	if err != nil {
		return nil, err
	}
	var writeMs, appendMs, diffMs float64
	for _, im := range c.images {
		sysRepo := c.refs[im.name()].system.Repo
		redirected, err := sysRepo.LoadByTag(im.res.DistTag + ".redirect")
		if err != nil {
			return nil, err
		}
		layers, err := redirected.Layers()
		if err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := oci.WriteImage(oci.NewStore(), *redirected.Config, layers); err != nil {
			return nil, err
		}
		writeMs += since(t)

		rebuilt, err := sysRepo.LoadByTag(cache.RebuiltTag(im.res.DistTag))
		if err != nil {
			return nil, err
		}
		rebuildLayer, err := rebuilt.Layer(len(rebuilt.Manifest.Layers) - 1)
		if err != nil {
			return nil, err
		}
		extDesc, err := sysRepo.Resolve(im.res.ExtendedTag)
		if err != nil {
			return nil, err
		}
		t = time.Now()
		if _, err := oci.AppendLayer(sysRepo.Store, extDesc, rebuildLayer, cache.RoleRebuild, "probe"); err != nil {
			return nil, err
		}
		appendMs += since(t)

		finalFS := fsim.ApplyAll(layers)
		t = time.Now()
		fsim.Diff(rebaseFS, finalFS)
		diffMs += since(t)
	}
	out["oci.write_image_ms"] = writeMs / images
	out["oci.append_layer_ms"] = appendMs / images
	out["fsim.diff_ms"] = diffMs / images

	// tarfs and digest over every distinct layer blob of the corpus.
	var rawBytes, gzBytes, unmarshalMs, marshalMs, digestMs float64
	for _, d := range corpusLayers(c) {
		raw, err := store.Get(d)
		if err != nil {
			return nil, err
		}
		rawBytes += float64(len(raw))
		t := time.Now()
		fs, err := tarfs.Unmarshal(raw)
		if err != nil {
			return nil, err
		}
		unmarshalMs += since(t)
		t = time.Now()
		if _, err := tarfs.Marshal(fs); err != nil {
			return nil, err
		}
		marshalMs += since(t)
		gz, err := tarfs.MarshalGzip(fs)
		if err != nil {
			return nil, err
		}
		gzBytes += float64(len(gz))
		t = time.Now()
		digest.FromBytes(raw)
		digestMs += since(t)
	}
	out["tarfs.unmarshal_mb_s"] = rawBytes / 1e6 / (unmarshalMs / 1e3)
	out["tarfs.marshal_mb_s"] = rawBytes / 1e6 / (marshalMs / 1e3)
	out["tarfs.gzip_ratio"] = gzBytes / rawBytes
	out["digest.mb_s"] = rawBytes / 1e6 / (digestMs / 1e3)

	// cclang.Parse over every recorded compiler command of the corpus.
	t = time.Now()
	parsed := 0
	for _, argv := range argvs {
		if _, err := cclang.Parse(argv); err == nil {
			parsed++
		}
	}
	out["cclang.parse_us"] = since(t) * 1e3 / float64(max(parsed, 1))

	// Runner.Run of the first image's recorded commands, in recording
	// order, on the flattened Sysenv file system plus its sources.
	first := c.images[0]
	firstImg, err := c.user.Repo.LoadByTag(first.res.ExtendedTag)
	if err != nil {
		return nil, err
	}
	models, srcFS, err := cache.Read(firstImg)
	if err != nil {
		return nil, err
	}
	for _, p := range srcFS.Paths() {
		if f, err := srcFS.Stat(p); err == nil && f.Type == fsim.TypeRegular {
			sysenvFS.WriteFile(p, f.Data, f.Mode)
		}
	}
	cmds := commands(models.Graph)
	t = time.Now()
	for _, cmd := range cmds {
		runner := toolchain.NewRunner(sysenvFS, c.sys.Toolchains)
		if err := sysenvFS.MkdirAll(cmd.Cwd, 0o755); err != nil {
			return nil, err
		}
		runner.Cwd = fsim.Clean(cmd.Cwd)
		if err := runner.Run(cmd.Argv); err != nil {
			return nil, fmt.Errorf("probe running %v: %w", cmd.Argv, err)
		}
	}
	out["toolchain.run_us"] = since(t) * 1e3 / float64(max(len(cmds), 1))

	// One farm round trip: push the tree, execute one compile. Only
	// the farm workload has a farm.
	out["remoteexec.action_rtt_ms"] = 0
	if w, ok := traced.w.(*adaptWorkload); ok && w.mode == farmed && len(cmds) > 0 {
		f, err := startFarm(ctx, c.sys, 1, nil)
		if err != nil {
			return nil, err
		}
		defer f.close(ctx)
		ex := remoteexec.NewExecutor(f.front.url, c.sys, c.sys.Toolchains)
		t = time.Now()
		if err := ex.PrepareContext(ctx, sysenvFS); err != nil {
			return nil, err
		}
		if _, err := ex.ExecuteContext(ctx, cmds[0].Argv, cmds[0].Cwd, nil); err != nil {
			return nil, err
		}
		out["remoteexec.action_rtt_ms"] = since(t)
		if st := ex.Stats(); st.Remote != 1 {
			return nil, fmt.Errorf("probe action did not run on the farm: %s", st)
		}
	}
	return out, nil
}

// commands returns a graph's distinct commands in recording order.
func commands(g *model.BuildGraph) []*model.CompilationModel {
	bySeq := map[int]*model.CompilationModel{}
	for _, n := range g.Nodes {
		if n.Cmd != nil {
			bySeq[n.Cmd.Seq] = n.Cmd
		}
	}
	out := make([]*model.CompilationModel, 0, len(bySeq))
	for _, cmd := range bySeq {
		out = append(out, cmd)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// commandArgvs returns the argv of every compiler command of a graph.
func commandArgvs(g *model.BuildGraph) [][]string {
	var out [][]string
	for _, cmd := range commands(g) {
		if cmd.Kind == "cc" {
			out = append(out, cmd.Argv)
		}
	}
	return out
}

// corpusLayers returns the distinct layer digests of the corpus's
// extended images, sorted.
func corpusLayers(c *corpus) []digest.Digest {
	seen := map[digest.Digest]bool{}
	for _, im := range c.images {
		m, err := oci.LoadManifest(c.user.Repo.Store, im.manifest)
		if err != nil {
			continue
		}
		for _, l := range m.Layers {
			seen[l.Digest] = true
		}
	}
	out := make([]digest.Digest, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
