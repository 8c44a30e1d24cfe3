from setuptools import Extension, setup

# The compiled kernels are an optimization, not a requirement: optional=True
# turns a failed build (say, no C compiler) into a warning, and the package
# then falls back to the pure-Python twin at import time.
setup(
    ext_modules=[
        Extension(
            "poset_ramsey._kernels._ckernels",
            ["src/poset_ramsey/_kernels/_ckernels.c"],
            optional=True,
        )
    ]
)
