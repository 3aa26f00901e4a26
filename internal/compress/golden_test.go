package compress

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"
)

// goldenPages holds 14 real 4-KByte pages captured from the small-scale
// Table 1 rows on the compression-cache machine (two per row, taken a
// quarter and three quarters of the way through each row's compressions,
// with the gold rows staggered so no page repeats): compressible text,
// sort keys, the compare and isca arrays, and sort_random's incompressible
// pages.
const goldenPages = "testdata/golden/table1_pages.bin"

// goldenSHA256 is the SHA-256 of each codec's Compress output for each
// golden page, in file order. Compressed pages are a persistent format —
// they are stored in the cache and on the backing store, their sizes feed
// every ratio in Table 1, and the machine reuses a clean page's compressed
// image instead of compressing it again, which is only sound while Compress
// is a pure function of the page. Any byte of drift fails here.
var goldenSHA256 = map[string][]string{
	"bdi": {
		"8d0b881f04902b1857395d0a3b937c936d9c3cae41e919e8467e337b54ff1407", // 1846 bytes
		"98ebf5f9178fcff799b82f41b6ca31e9d069e2f2a6c11ca89ea14ec0c78a6ef9", // 2080 bytes
		"1044bdf3ce8cf0f20e1fbc8953f7232389c1a9e6ade867a4ebfdcea0a4eb7d3f", // 1025 bytes
		"6422cfd68c86ba13a11b897cf38728af016e1781b5d8185a359efacdf58a3ade", // 1025 bytes
		"ffc95e69e6f83d72da70b5a9d2aa8fd61d43619dd4e3b70100e28e4641458d14", // 4097 bytes
		"794a198815f4bfb6021e1bc1448b15d48ba4d91c052603e846ddcbaea2de0b34", // 4097 bytes
		"1e3442fa70e1256c27dd6aa33d31dad016becc96208b86bfe4318c59ab65b7af", // 3681 bytes
		"6fb91f2753066500db2969423f5d30248c9ee74bc833dbe70e6cc9597bb3fd1f", // 3913 bytes
		"4f1b7ae96a2a3887fb2e760c2b3ae39bc25e4278b72ad0e89ca3be4904021369", // 3837 bytes
		"38336df91cb80a3c0fdf0a7dc0fab3be6299f652f0b219b6a82ac53c6734363e", // 3181 bytes
		"b6d547473b03bc0158137d62b3443bea53e688d9012023b5b45d77d33eed0ba0", // 4097 bytes
		"bac409dad93fa47e3c7843fed3c17f3a69cec2dca56192c9b9d138ce14476a5b", // 4097 bytes
		"aceefdeafc868db6c52d4e5d3a5880e2b75bdfe1b93361e4d87b54efc252d40e", // 3117 bytes
		"65415b6948f0131ff94ffdcc04cfebaeab2bb03154c2559160f714c8b6042c09", // 3877 bytes
	},
	"fpc": {
		"21cdbfb7cf2a46093ab51ed945ce9c3d49761c6300094034f0d37d01a890852e", // 407 bytes
		"a71c274c17a57e027a4010c4fe62e81bf4c177ee9ba5ad30609ecfab5e42cb7b", // 436 bytes
		"7d34fff017b9d4b9700fbc2cc185832a7a256c31112d9e1e8e4cc1e25ae053ff", // 836 bytes
		"a5ef64585e33c2a4a73ec0447e2e78bac7e0f5330cdce127569c8f023140823f", // 833 bytes
		"cc1327bdb51313190186b43f70e8f7a6755a0e2bcd6e4bcfc577868dd37be70c", // 3669 bytes
		"3fc304f1e61bea6901e6bb865a814a190b8c0d89c6784bce309c206e69793a07", // 3529 bytes
		"e7465af965b240286174ff9484c6d4f2c73b943fb68e744f705468c64b24dc69", // 3052 bytes
		"309355c8c6bb2e97db765bb12ac2ed25588e629f10d433c5f3c66263b0720520", // 3244 bytes
		"647a16777275c7eb310e92a21197e6e71dea37ee9240fa85c39b1b23d3e4db8a", // 3211 bytes
		"24ffddaad4837f5fade4679c31df8d7a47d3e68c9b17448efb18230ae874b847", // 2351 bytes
		"d00d0ae5fd4645bf733ae19704b89c5fd461fa1ef579fe804797e556a8833739", // 3623 bytes
		"a6ecd0c68ff4853c37bf4e71c46730908bca1423adb62efbfa50c60d569354a9", // 3370 bytes
		"7aa4729f76ae97c7887b427c2867b61493ffd723bb5854de0810909a92a2726b", // 1880 bytes
		"ff90faa7da4d1b05f9a02b22f60ce5305c0833b5da756b57ddb42326768cf653", // 2954 bytes
	},
	"lzrw1": {
		"d510f980031fc31324f45f78789b99b390af9cf35aec79d9d742c34ec579f1f5", // 725 bytes
		"285e7164fa4f2f1893c1565c9ce1ad06a83adb3d18fa9f798851b602e5f4c6ad", // 727 bytes
		"3cf30228db8f29d29f9c6958785b2c70ce16ff225cdeca8f1d1d3522fd6b4654", // 828 bytes
		"2db66c58f35cf1739b9dd6792548e4f404578685239568728f57a422a647cb65", // 828 bytes
		"d0c66bef014a3c453db37bc2e1cd1d86bcf0275539640302136096b86dba7d5d", // 2285 bytes
		"81db6e06c9db0706429cf246a023a552168a2cb332379c434321891eba6a4a1b", // 2255 bytes
		"93201a334bb59c35dc98a3f1da5c0d37f67e070bd43dde0225cacc4c952f4e4d", // 1997 bytes
		"614cac005390c633b1b652be4d19f729c8f633d01261be9dfe82ff0ddc7cdc0b", // 2451 bytes
		"02a66751a08c33a7fe8df2dbc1f49842ab7f7b1ae36c3210ff9a5f88dca3f411", // 2529 bytes
		"eb23bc39483c5f79e2431ed48b7c2d3cfd621a3dad65ab968b77e49c6b8ce095", // 2140 bytes
		"a39d212493815986090a4ae0601dd2db36e2036d02ea36aee42da3428b806f01", // 3543 bytes
		"3d77ab30d43fd6ce03ff2631780931aa6f210ef7bffbe4f57adc7a4e4d66cd2b", // 1578 bytes
		"48131d4d759a3ea0e45fb8eb3e708a0978a46af7332290c3c99d503fd46a2875", // 2200 bytes
		"9cb933228974848e2c25b3ef6e7845f0ea6042dfb3f4befcae8e9ee896a7f7d4", // 2498 bytes
	},
	"lzss": {
		"9d9e0be382890b77c165ecf7d92e258e05e245aa1575c38099e152775ab836b4", // 107 bytes
		"339ce3ab447e579ae2ba30d48db766a364006b45ab746fb8591ed25a38abf7e5", // 183 bytes
		"6de76d4d1c4e8f755a052763eeebd28470414acb26ead9ffbe91b44502ba30b8", // 131 bytes
		"a69a7cff6e0c7acb427e1c6332980c489929e83028cdc21245b8a554587f7c61", // 146 bytes
		"a1afee49ca02a0701bafd30181d4f8da3fdc2a82fcc85cc6e180a53a78151474", // 2388 bytes
		"c06863f7715afe99bd937164bed14071ca45886bff244b180960dc741e25c2e5", // 2347 bytes
		"f700acf8ae628bb5852837ff7fe3e482d0e51c0282b9653d0fbb32859db70a35", // 2105 bytes
		"88b3c911cc975e9c2ed7dc41e952e27caab3fe02ed21415230ed98dacef37358", // 2612 bytes
		"af727b36251fb18cbcabda006cc56b717b5fcfb6e5b64688d6661d96a0a0713a", // 2727 bytes
		"fe59ace2b330bf587f454f505581586a4dab4ce93ab2abfad26e6829af33ad7d", // 2229 bytes
		"da926d578007ee731d5d17e56cc8ba16cb1ac2cc2ebfd6b817dc84bd43f5f8a4", // 3821 bytes
		"41fad0c3fc7d0e343565e19dd76c856e037f45c5e30a0e6b62aa71580875afb4", // 1867 bytes
		"76709d03041f09b88c41d0a52c30f9f0edd3a0d7935bb2148f24dc0605ee7f5f", // 2222 bytes
		"8ffe8c40b8cb58cc05f00feaaed760b5b0a1de1310f68b4901be8f6f07b685ee", // 2665 bytes
	},
	"null": {
		"11460a91abcdc5d104febca38904dba65739d3ac21f3da95932bb5a1cf587158", // 4100 bytes
		"5647dba00ecb5b85488c23edc140028f7d08a767a2516033840cbc6b5d7cee3d", // 4100 bytes
		"0c2d86c0248b665728aea113d9accc83de6149b870a891128190606940e7de62", // 4100 bytes
		"82cdd559c219f3c60100202a74756c1a39ff4632a08d164f96de85f8db100495", // 4100 bytes
		"184ffdacf414f1a2a7694b6b323a2041948d83331f6283f7839a46daf47bc075", // 4100 bytes
		"910c2f390a52fb1c08deca95f9af41b06e4092f198c0bfb770cab14798e078fd", // 4100 bytes
		"f9eba5cc39eedd5ddccb72343cce06e13fe2e70a68318f5d9148c515114cd85f", // 4100 bytes
		"e04f90f6608834c9becb25fe12fad646b0ac26569d28399f1f5d5450f32a0bdb", // 4100 bytes
		"afbc8bb79b003270a4ddf69ba34ecb24a503271816366ddcf6f99d1dd374bb29", // 4100 bytes
		"7e2b6a5676875cc13af6d63acc519105545f6db5a83b12982ad122f5b9afb6c0", // 4100 bytes
		"fd30fdabfff1671abf0dfce59cfe2a8b5c37efd09e1f162e706982550ba690af", // 4100 bytes
		"a20c5e3df2554b3301cfe0aeecfed0248aa60a9db8cabf1aab550715c9916f87", // 4100 bytes
		"48e6b83dbaec73c8739764a292877548858ef9c92477c3dcde88b2f2fc9975a2", // 4100 bytes
		"0beed2212da538e59a543944367f3f3d8b86b041524dcbb8d711ed74498de83a", // 4100 bytes
	},
	"rle": {
		"767acab85d81e79a72d89d1f56d4198fc30ad58c5167fa68c96fdf0643d6de04", // 606 bytes
		"719f2652f0ba9e8992d41485f02f40a7a1f064018aaf3f93fe89cfbd4927688c", // 543 bytes
		"fef90933acf0d8751a1d767df4a9d46d65255b2187709f8a458741d809e97103", // 1596 bytes
		"270d1d9211f66a904da4e3a4421353fb9b90af0f17d86e97d232a431f798ee15", // 1581 bytes
		"4c8a774753b5ee3dc0745dba314c962efdfe862eb0de3de6ef87990580ee660e", // 3842 bytes
		"694ec7d8f3d825d73de83f76cf181660b41fd7bdd6591dd48e711bb607a78575", // 3780 bytes
		"62f04353c0a7b4c7623642bf4f6f95bbf5ef582e3839a0862f391b0944dd4b59", // 3563 bytes
		"11823ca89a8232e24b389b7aac830d2a66be761a5e09c2aa60ae7949ae772e59", // 3781 bytes
		"e14b53aec56fcbbb916960703f344077987bbbe12e30ddda70153a2b40a4a54e", // 3750 bytes
		"e8812a6d898830750919296c91b7432dadbf8ffb486b0fa6708d9755d30f127f", // 2775 bytes
		"690a47c53d7888777bfe9b3224bed655a36d30b867650dfa53b71c362ccc9f99", // 3787 bytes
		"e89c07f2af7f64cad17da971ef14ed4e9be5e36b4228e3127d2817bdbadb4537", // 3776 bytes
		"e0a053221e88737add08cd19d06474908b2b2abff2b234b5cc282fcb84ac2dbd", // 2331 bytes
		"7c6fdfa833e7e90c573e726240d5d44cfe71fb734d1f0d37f8d29c6f886325e0", // 3471 bytes
	},
}

func TestGoldenCodecVectors(t *testing.T) {
	data, err := os.ReadFile(goldenPages)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize = 4096
	if len(data) == 0 || len(data)%pageSize != 0 || len(data) > 64<<10 {
		t.Fatalf("%s: %d bytes, want whole pages and at most 64 KB", goldenPages, len(data))
	}
	for _, name := range Names() {
		want, ok := goldenSHA256[name]
		if !ok {
			t.Errorf("codec %s has no golden vectors", name)
			continue
		}
		if len(want) != len(data)/pageSize {
			t.Errorf("codec %s: %d golden hashes for %d pages", name, len(want), len(data)/pageSize)
			continue
		}
		c, _ := Lookup(name)
		for i := range want {
			page := data[i*pageSize : (i+1)*pageSize]
			out := c.Compress(nil, page)
			if sum := sha256.Sum256(out); hex.EncodeToString(sum[:]) != want[i] {
				t.Errorf("%s page %d: Compress output (%d bytes) has SHA-256 %x, want %s", name, i, len(out), sum, want[i])
			}
			back, err := c.Decompress(nil, out)
			if err != nil || !bytes.Equal(back, page) {
				t.Errorf("%s page %d: round trip failed (err %v)", name, i, err)
			}
		}
	}
}

// BenchmarkCodecGoldenPages measures every registered codec in both
// directions over the golden Table 1 pages, decoding into a page-sized
// buffer the way the machine's fault path does. Each iteration covers all
// pages; ns/page is the per-page cost. Both directions run without
// allocating (TestCodecZeroAllocs enforces it).
func BenchmarkCodecGoldenPages(b *testing.B) {
	data, err := os.ReadFile(goldenPages)
	if err != nil {
		b.Fatal(err)
	}
	const pageSize = 4096
	pages := len(data) / pageSize
	perPage := func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
	}
	for _, name := range Names() {
		c, _ := Lookup(name)
		blocks := make([][]byte, pages)
		for i := range blocks {
			blocks[i] = c.Compress(nil, data[i*pageSize:(i+1)*pageSize])
		}
		b.Run(name+"/compress", func(b *testing.B) {
			dst := make([]byte, 0, c.MaxCompressedSize(pageSize))
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < pages; i++ {
					dst = c.Compress(dst[:0], data[i*pageSize:(i+1)*pageSize])
				}
			}
			perPage(b)
		})
		b.Run(name+"/decompress", func(b *testing.B) {
			dst := make([]byte, 0, pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, blk := range blocks {
					out, err := c.Decompress(dst[:0], blk)
					if err != nil {
						b.Fatal(err)
					}
					dst = out
				}
			}
			perPage(b)
		})
	}
}

// TestDecompressStaysInWindow pins the write half of the Decompress scratch
// rule on Codec: decoding into a three-index window of a larger buffer,
// after a prefix, never writes past the window's capacity, whether the
// window has room for the page, room for the page plus a fast-path group,
// or too little room (the codec must then grow into a new array). Damaged
// blocks, which may fail or decode to the wrong length, must stay inside
// the window too.
func TestDecompressStaysInWindow(t *testing.T) {
	data, err := os.ReadFile(goldenPages)
	if err != nil {
		t.Fatal(err)
	}
	const pageSize, pad, sentinel = 4096, 64, 0xA5
	prefix := []byte("prefix")
	for _, name := range Names() {
		c, _ := Lookup(name)
		for i := 0; i < len(data)/pageSize; i++ {
			page := data[i*pageSize : (i+1)*pageSize]
			block := c.Compress(nil, page)
			damaged := bytes.Clone(block)
			damaged[len(damaged)/2] ^= 0x5A
			for _, capacity := range []int{len(prefix) + pageSize, len(prefix) + pageSize + 512, pageSize / 2} {
				for k, blk := range [][]byte{block, damaged, block[:len(block)*2/3]} {
					buf := bytes.Repeat([]byte{sentinel}, pad+capacity+pad)
					window := buf[pad : pad+len(prefix) : pad+capacity]
					copy(window, prefix)
					out, err := c.Decompress(window, blk)
					for j, b := range buf {
						if (j < pad || j >= pad+capacity) && b != sentinel {
							t.Fatalf("%s page %d, capacity %d: byte %d outside the window overwritten", name, i, capacity, j-pad)
						}
					}
					if k == 0 && (err != nil || !bytes.Equal(out, append(bytes.Clone(prefix), page...))) {
						t.Fatalf("%s page %d, capacity %d: decode into the window failed (err %v)", name, i, capacity, err)
					}
				}
			}
		}
	}
}
